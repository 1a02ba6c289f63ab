"""Immutable integer view of a CTG's real-edge structure.

The list scheduler asks the same structural questions thousands of
times per call — the in-edges of a task, its real predecessors, whether
one task already reaches another — and the answers never change between
calls on one graph.  :class:`CompiledCtg` answers them from plain
tuples and Python-int bitsets built once per graph change (it is cached
on :class:`~repro.ctg.minterms.CtgAnalysis`), instead of walking the
mutable networkx-backed :class:`ConditionalTaskGraph` on every query.

Task ids are positions in the graph's task insertion order.  Pseudo
edges are not compiled: the structure describes the graph the
scheduler starts from, and each scheduling call extends its own copy of
the reachability rows as it serialises tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .conditions import Outcome
from .graph import CTGError, ConditionalTaskGraph


@dataclass(frozen=True)
class CompiledCtg:
    """Real-edge adjacency and reachability of one CTG, by task id.

    Attributes
    ----------
    tasks:
        Task names; a task's id is its position here (insertion order).
    index:
        Task name → id.
    topo:
        A topological order of the ids over real edges.
    in_edges:
        Per task, its real in-edges as ``(src_id, comm_kbytes)``, in the
        in-edge order of a copy of the graph (sources in insertion
        order) — the order the scheduler's working copy iterates.
    successors:
        Per task, its real successor ids in out-edge order.
    out_guards:
        Per task, the guarding outcome (or ``None``) of each out-edge,
        parallel to :attr:`successors`.
    descendants:
        Per task, a bitset (bit ``j`` = task id ``j``) of every task it
        reaches over real edges, itself excluded.
    edge_count:
        Number of real edges.
    """

    tasks: Tuple[str, ...]
    index: Mapping[str, int]
    topo: Tuple[int, ...]
    in_edges: Tuple[Tuple[Tuple[int, float], ...], ...]
    successors: Tuple[Tuple[int, ...], ...]
    out_guards: Tuple[Tuple[Optional[Outcome], ...], ...]
    descendants: Tuple[int, ...]
    edge_count: int

    @classmethod
    def of(cls, ctg: ConditionalTaskGraph) -> "CompiledCtg":
        """Compile the real edges of ``ctg`` (pseudo edges are ignored)."""
        tasks = tuple(ctg.tasks())
        index: Dict[str, int] = {name: i for i, name in enumerate(tasks)}
        n = len(tasks)
        in_edges: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        successors: List[List[int]] = [[] for _ in range(n)]
        out_guards: List[List[Optional[Outcome]]] = [[] for _ in range(n)]
        edge_count = 0
        adjacency = ctg.graph.succ
        for s, src in enumerate(tasks):
            for dst, attrs in adjacency[src].items():
                data = attrs["data"]
                if data.pseudo:
                    continue
                d = index[dst]
                successors[s].append(d)
                out_guards[s].append(data.condition)
                in_edges[d].append((s, data.comm_kbytes))
                edge_count += 1
        topo = _topological_order(successors, in_edges)
        descendants = [0] * n
        for node in reversed(topo):
            reach = 0
            for succ in successors[node]:
                reach |= (1 << succ) | descendants[succ]
            descendants[node] = reach
        return cls(
            tasks=tasks,
            index=index,
            topo=topo,
            in_edges=tuple(tuple(edges) for edges in in_edges),
            successors=tuple(tuple(succ) for succ in successors),
            out_guards=tuple(tuple(guards) for guards in out_guards),
            descendants=tuple(descendants),
            edge_count=edge_count,
        )


def _topological_order(
    successors: List[List[int]], in_edges: List[List[Tuple[int, float]]]
) -> Tuple[int, ...]:
    """Kahn's algorithm over ids; raises :class:`CTGError` on a cycle."""
    pending = [len(edges) for edges in in_edges]
    ready = [i for i, count in enumerate(pending) if count == 0]
    order: List[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in successors[node]:
            pending[succ] -= 1
            if pending[succ] == 0:
                ready.append(succ)
    if len(order) != len(pending):
        raise CTGError("conditional task graph must be acyclic")
    return tuple(order)

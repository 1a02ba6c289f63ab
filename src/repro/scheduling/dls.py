"""Modified Dynamic Level Scheduling for conditional task graphs.

Stage 1 of the paper's online algorithm (§III.A), adopted from the
authors' ISCAS'07 work [17]: a list scheduler that maps and orders
computation *and* communication together, extended for CTGs with

* **probability-weighted static levels** — a branch fork node's level
  is the probability-weighted sum of its successors' levels instead of
  the maximum, so likely subgraphs dominate the priority;
* **mutual-exclusion-aware processor booking** — tasks that can never
  co-execute may share a time slot on the same PE;
* the **δ(τ, p) heterogeneity preference** — tasks gravitate to PEs
  faster than their average.

The dynamic level of a ready task τ on PE p is

    DL(τ, p) = SL(τ) − AT(τ, p) + δ(τ, p)                       (1)

with ``AT`` the earliest start honouring data arrival (including link
transfer and link contention) and PE occupancy.  The (τ, p) pair with
the largest DL is placed, pseudo edges serialise it against its same-PE
non-exclusive neighbours ("update the CTG"), and the ready list is
refreshed until empty.

Setting ``probability_aware=False`` and ``mutex_overlap=False``
degrades the scheduler to a classic worst-case DLS — the mapping and
ordering stage used by Reference Algorithm 1.

Every structural query of the main loop (in-edges, the ready list, the
redundancy test of a pseudo edge) reads a
:class:`~repro.ctg.compiled.CompiledCtg` built once per graph change
and cached on the :class:`~repro.ctg.minterms.CtgAnalysis`; only the
working copy that records the pseudo edges is a networkx graph.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..check.tolerances import EXACT_EPS
from ..ctg.compiled import CompiledCtg
from ..ctg.graph import ConditionalTaskGraph
from ..ctg.minterms import (
    BranchProbabilities,
    CtgAnalysis,
    enumerate_scenarios,
    exclusion_table,
)
from ..platform.mpsoc import Platform
from ..profiling import StageProfiler, as_profiler
from .schedule import CommBooking, Schedule, SchedulingError

_NONE: frozenset = frozenset()

#: A busy interval on a PE or link: (start, finish, task name).  Lists
#: of them are kept sorted, so filtering out the exclusive ones leaves
#: the (start, finish) pairs in sorted order.
_Interval = Tuple[float, float, str]

#: A transfer a candidate placement needs: (src id, start, duration, kbytes).
_Transfer = Tuple[int, float, float, float]


def static_levels(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    probabilities: BranchProbabilities,
    probability_aware: bool = True,
) -> Dict[str, float]:
    """The paper's SL(τ) over average WCETs.

    Non-branching nodes: ``SL = *WCET + max SL(successor)``.
    Branch fork nodes (when ``probability_aware``): ``SL = *WCET +
    Σ prob(c) · SL(successor via c)``, with unconditional successors
    entering through the max term alongside the weighted sum.
    """
    compiled = CompiledCtg.of(ctg)
    levels = _levels(compiled, platform, probabilities, probability_aware)
    return {compiled.tasks[i]: levels[i] for i in reversed(compiled.topo)}


def _levels(
    compiled: CompiledCtg,
    platform: Platform,
    probabilities: BranchProbabilities,
    probability_aware: bool,
) -> List[float]:
    """Static levels by task id (see :func:`static_levels`)."""
    levels = [0.0] * len(compiled.tasks)
    for node in reversed(compiled.topo):
        base = platform.average_wcet(compiled.tasks[node])
        cond_sum = 0.0
        uncond_best = 0.0
        has_cond = False
        for dst, guard in zip(compiled.successors[node], compiled.out_guards[node]):
            if guard is not None and probability_aware:
                has_cond = True
                cond_sum += probabilities[guard.branch][guard.label] * levels[dst]
            else:
                uncond_best = max(uncond_best, levels[dst])
        tail = max(cond_sum, uncond_best) if has_cond else uncond_best
        levels[node] = base + tail
    return levels


def _candidates(
    compiled: CompiledCtg,
    platform: Platform,
    fixed_mapping: Optional[Mapping[str, str]],
) -> List[Tuple[Tuple[str, float, float], ...]]:
    """Per task id, its ``(pe, wcet, δ)`` options in PE order.

    ``δ = averageWCET − WCET`` is the heterogeneity preference.  A
    fixed mapping narrows each task to its assigned PE, which must
    exist and support the task.
    """
    pe_names = platform.pe_names
    table = []
    for task in compiled.tasks:
        avg = platform.average_wcet(task)
        if fixed_mapping is None:
            pes: Sequence[str] = [pe for pe in pe_names if platform.supports(task, pe)]
        else:
            if task not in fixed_mapping:
                raise SchedulingError(f"fixed mapping has no PE for task {task!r}")
            pe = fixed_mapping[task]
            if pe not in pe_names:
                raise SchedulingError(
                    f"fixed mapping puts task {task!r} on unknown PE {pe!r}"
                )
            if not platform.supports(task, pe):
                raise SchedulingError(
                    f"fixed mapping puts task {task!r} on PE {pe!r}, "
                    "which does not support it"
                )
            pes = [pe]
        options = []
        for pe in pes:
            wcet = platform.wcet(task, pe)
            options.append((pe, wcet, avg - wcet))
        table.append(tuple(options))
    return table


def _link(a: str, b: str) -> Tuple[str, str]:
    """Key of the point-to-point link between two PEs."""
    return (a, b) if a <= b else (b, a)


def _earliest_slot(
    busy: Sequence[_Interval], exclusive: frozenset, ready: float, duration: float
) -> float:
    """Earliest start ≥ ready that fits ``duration`` between the sorted
    ``busy`` intervals, ignoring those of ``exclusive`` tasks (mutually
    exclusive work may overlap — it can never both happen)."""
    start = ready
    for interval_start, interval_finish, other in busy:
        if other in exclusive:
            continue
        if start + duration <= interval_start + EXACT_EPS:
            break
        start = max(start, interval_finish)
    return start


class _DlsState:
    """Bookkeeping of the list-scheduling main loop, by task id."""

    def __init__(
        self,
        schedule: Schedule,
        compiled: CompiledCtg,
        exclusions: Mapping[str, frozenset],
    ) -> None:
        self.schedule = schedule
        self.platform = schedule.platform
        self.tasks = compiled.tasks
        self.in_edges = compiled.in_edges
        #: per task id, the tasks it may overlap with (empty when
        #: mutex_overlap is off)
        self.exclusive = [exclusions.get(task, _NONE) for task in compiled.tasks]
        #: PE and worst-case (start, finish) of placed tasks, nominal speed
        self.pe_of: List[Optional[str]] = [None] * len(compiled.tasks)
        self.times: List[Tuple[float, float]] = [(0.0, 0.0)] * len(compiled.tasks)
        #: sorted busy intervals per PE and per link
        self.pe_busy: Dict[str, List[_Interval]] = {}
        self.link_busy: Dict[Tuple[str, str], List[_Interval]] = {}
        #: task ids per PE in placement order
        self.pe_tasks: Dict[str, List[int]] = {}

    def earliest_pe_slot(self, task: int, pe: str, ready: float, duration: float) -> float:
        """Earliest start ≥ ready with no overlap against non-exclusive
        tasks already on ``pe`` (mutually exclusive tasks may overlap)."""
        busy = self.pe_busy.get(pe)
        if not busy:
            return ready
        return _earliest_slot(busy, self.exclusive[task], ready, duration)

    def earliest_link_slot(
        self,
        src: int,
        link: Tuple[str, str],
        ready: float,
        duration: float,
        pending: Sequence[_Interval],
    ) -> float:
        """Earliest start ≥ ready of a transfer from task ``src`` on ``link``.

        Transfers whose source tasks are mutually exclusive may overlap;
        everything else serialises on the dedicated point-to-point link.
        ``pending`` carries intervals tentatively claimed on this link by
        the candidate under evaluation but not yet committed — a task
        pulling several inputs over one link must serialise them against
        each other, not only against booked transfers.
        """
        booked = self.link_busy.get(link, ())
        if pending:
            busy: Sequence[_Interval] = sorted(chain(booked, pending))
        elif booked:
            busy = booked
        else:
            return ready
        return _earliest_slot(busy, self.exclusive[src], ready, duration)

    def arrival_time(self, task: int, pe: str) -> Tuple[float, List[_Transfer]]:
        """Data-ready time of ``task`` on ``pe`` plus the transfers it
        needs — booked only if the placement is committed."""
        ready = 0.0
        transfers: List[_Transfer] = []
        pending: Dict[Tuple[str, str], List[_Interval]] = {}
        for src, kbytes in self.in_edges[task]:
            src_pe = self.pe_of[src]
            finish = self.times[src][1]
            duration = self.platform.comm_time(src_pe, pe, kbytes)
            if duration > 0.0:
                link = _link(src_pe, pe)
                claimed = pending.setdefault(link, [])
                start = self.earliest_link_slot(src, link, finish, duration, claimed)
                claimed.append((start, start + duration, self.tasks[src]))
                transfers.append((src, start, duration, kbytes))
                ready = max(ready, start + duration)
            else:
                ready = max(ready, finish)
        return ready, transfers

    def commit(self, task: int, pe: str, start: float, transfers: List[_Transfer]) -> float:
        """Place ``task`` on ``pe`` at ``start`` and book its incoming
        transfers; returns its finish time."""
        name = self.tasks[task]
        finish = start + self.schedule.place(name, pe).wcet
        self.pe_of[task] = pe
        self.times[task] = (start, finish)
        insort(self.pe_busy.setdefault(pe, []), (start, finish, name))
        for src, t_start, duration, kbytes in transfers:
            src_pe = self.pe_of[src]
            insort(
                self.link_busy.setdefault(_link(src_pe, pe), []),
                (t_start, t_start + duration, self.tasks[src]),
            )
            self.schedule.book_comm(
                CommBooking(
                    src_task=self.tasks[src],
                    dst_task=name,
                    src_pe=src_pe,
                    dst_pe=pe,
                    start=t_start,
                    duration=duration,
                    kbytes=kbytes,
                )
            )
        return finish


def dls_schedule(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    probabilities: Optional[BranchProbabilities] = None,
    probability_aware: bool = True,
    mutex_overlap: bool = True,
    fixed_mapping: Optional[Mapping[str, str]] = None,
    analysis: Optional[CtgAnalysis] = None,
    profiler: Optional[StageProfiler] = None,
) -> Schedule:
    """Map and order a CTG on a platform with the modified DLS.

    Parameters
    ----------
    ctg:
        The graph to schedule (left untouched; the schedule owns a
        working copy that accumulates pseudo edges).
    platform:
        Target platform (every task must be profiled on ≥ 1 PE).
    probabilities:
        Branch distributions; defaults to ``ctg.default_probabilities``.
    probability_aware:
        Use probability-weighted static levels (the modification of
        [17]); ``False`` gives classic worst-case levels.
    mutex_overlap:
        Allow mutually exclusive tasks to share PE/link time slots;
        ``False`` serialises everything (Reference Algorithm 1).
    fixed_mapping:
        Optional task→PE assignment.  When given, the list scheduler
        only *orders* tasks — each task's candidate PE set shrinks to
        its assigned PE (the setting of ref [10], which schedules on a
        pre-given mapping).  Every task must be assigned a PE of the
        platform that supports it, else :class:`SchedulingError`.
    analysis:
        Pre-computed structural analysis of ``ctg`` (scenarios,
        exclusions and the compiled graph); saves re-deriving it on
        every adaptive re-scheduling call.
    profiler:
        Optional :class:`~repro.profiling.StageProfiler`; records the
        ``dls.levels`` stage and the ``dls.tasks_placed`` counter.

    Returns
    -------
    Schedule
        All tasks placed at nominal speed, pseudo edges recorded.
    """
    prof = as_profiler(profiler)
    if probabilities is None:
        probabilities = ctg.default_probabilities
    working = ctg.copy()
    if analysis is None:
        scenarios = enumerate_scenarios(working)
        exclusions = exclusion_table(working, scenarios)
        compiled = CompiledCtg.of(working)
    else:
        exclusions = analysis.exclusions
        compiled = analysis.compiled
    schedule = Schedule(working, platform, exclusions)
    with prof.stage("dls.levels"):
        levels = _levels(compiled, platform, probabilities, probability_aware)
    candidates = _candidates(compiled, platform, fixed_mapping)
    state = _DlsState(schedule, compiled, exclusions if mutex_overlap else {})

    # Reachability over the working graph: the compiled real-edge rows,
    # any pseudo edges the input already carries, then every pseudo
    # edge added below.
    reach = list(compiled.descendants)
    if compiled.edge_count != working.graph.number_of_edges():
        for src, dst, data in working.edges():
            if data.pseudo:
                _add_reach(reach, compiled.index[src], compiled.index[dst])

    names = compiled.tasks
    index = compiled.index
    waiting = [len(edges) for edges in compiled.in_edges]
    ready = sorted(names[i] for i, count in enumerate(waiting) if count == 0)
    while ready:
        best_key: Optional[Tuple[float, float, str, str]] = None
        best_start = 0.0
        best_transfers: List[_Transfer] = []
        for name in ready:
            task = index[name]
            level = levels[task]
            for pe, wcet, delta in candidates[task]:
                ready_at, transfers = state.arrival_time(task, pe)
                start = state.earliest_pe_slot(task, pe, ready_at, wcet)
                dl = level - start + delta
                # Maximise DL; break ties on earlier start then names for
                # determinism.
                key = (dl, -start, name, pe)
                if best_key is None or key > best_key:
                    best_key = key
                    best_start = start
                    best_transfers = transfers
        assert best_key is not None
        _dl, _neg_start, name, pe = best_key
        task = index[name]
        _serialise(state, working, reach, task, pe, best_start, best_transfers)
        ready.remove(name)
        for succ in compiled.successors[task]:
            waiting[succ] -= 1
            if waiting[succ] == 0:
                insort(ready, names[succ])
    prof.count("dls.tasks_placed", len(schedule.placements))
    return schedule


def _add_reach(reach: List[int], src: int, dst: int) -> None:
    """Record edge ``src → dst``: ``src`` and every task reaching it now
    also reach ``dst`` and everything ``dst`` reaches."""
    gained = reach[dst] | (1 << dst)
    for node, row in enumerate(reach):
        if node == src or row >> src & 1:
            reach[node] = row | gained


def _serialise(
    state: _DlsState,
    working: ConditionalTaskGraph,
    reach: List[int],
    task: int,
    pe: str,
    start: float,
    transfers: List[_Transfer],
) -> None:
    """Commit ``task`` on ``pe`` at ``start`` and serialise it against
    its same-PE neighbours with pseudo edges."""
    finish = state.commit(task, pe, start, transfers)
    # Pseudo edges: order `task` against every non-exclusive task already
    # on the PE.  Redundant edges (already reachable) are skipped to keep
    # the path set small.
    names = state.tasks
    exclusive = state.exclusive[task]
    peers = state.pe_tasks.setdefault(pe, [])
    for other in peers:
        if names[other] in exclusive:
            continue
        o_start, o_finish = state.times[other]
        if o_finish <= start + EXACT_EPS:
            if not reach[other] >> task & 1:
                working.add_pseudo_edge(names[other], names[task])
                _add_reach(reach, other, task)
        elif finish <= o_start + EXACT_EPS:
            if not reach[task] >> other & 1:
                working.add_pseudo_edge(names[task], names[other])
                _add_reach(reach, task, other)
        else:  # pragma: no cover - earliest_pe_slot prevents overlap
            raise SchedulingError(
                f"internal: overlap between {names[task]!r} and {names[other]!r} on {pe!r}"
            )
    peers.append(task)

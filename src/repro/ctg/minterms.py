"""Scenario (minterm) analysis for conditional task graphs.

The paper's *minterm* set M is the set of consistent combinations of
branch outcomes, where a branch contributes an outcome only when the
branch fork node is itself activated under the partial combination
(Example 1: M = {1, a₁, a₂b₁, a₂b₂} — branch *b* never fires under a₁).
We call one complete, executable combination a :class:`Scenario`; the
paper's condition ``1`` labels the unconditional context rather than a
separate execution.

This module provides:

* :func:`enumerate_scenarios` — all scenarios with their activated task
  sets, by recursive resolution of activated branch forks;
* :func:`activation_sets` / :func:`activation_probability`;
* :func:`gamma` — the paper's Γ(τ), the structural DNF of the
  activation condition X(τ) (Example 1: Γ(τ₈) = {1, a₁});
* :func:`mutually_exclusive` / :func:`exclusion_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .compiled import CompiledCtg
from .conditions import ConditionProduct, Outcome, TRUE, minimal_products, product_probability
from .graph import CTGError, ConditionalTaskGraph, NodeKind

BranchProbabilities = Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class Scenario:
    """One executable resolution of a CTG's branch decisions.

    Attributes
    ----------
    product:
        Condition product assigning an outcome to every branch fork
        node that is activated in this scenario.
    active:
        The set of tasks activated when the branches resolve this way.
    """

    product: ConditionProduct
    active: FrozenSet[str]

    def probability(self, probabilities: BranchProbabilities) -> float:
        """Scenario probability under independent branch distributions."""
        return product_probability(self.product, probabilities)

    def activates(self, task: str) -> bool:
        """Whether ``task`` runs in this scenario."""
        return task in self.active


def resolve_activation(
    ctg: ConditionalTaskGraph, assignment: Mapping[str, str]
) -> Tuple[FrozenSet[str], Optional[str]]:
    """Compute the activated task set under a (partial) branch assignment.

    Walks the graph in topological order applying the paper's and/or
    activation semantics over *real* edges only.  Returns ``(active,
    unresolved)`` where ``unresolved`` is the first activated branch fork
    node without an assigned outcome (``None`` when the assignment fully
    resolves execution).
    """
    active: set = set()
    for node in ctg.topological_order():
        in_edges = list(ctg.in_edges(node, include_pseudo=False))
        if not in_edges:
            active.add(node)
            continue
        # Three-valued evaluation of each incoming edge: True (taken),
        # False (source inactive or branch chose another outcome), or
        # the deciding branch name when the outcome is still unassigned.
        values: List[object] = []
        for src, _dst, data in in_edges:
            if src not in active:
                values.append(False)
            elif data.condition is None:
                values.append(True)
            else:
                chosen = assignment.get(data.condition.branch)
                if chosen is None:
                    values.append(data.condition.branch)
                else:
                    values.append(chosen == data.condition.label)
        unknowns = [v for v in values if isinstance(v, str)]
        if ctg.kind(node) is NodeKind.AND:
            if any(v is False for v in values):
                continue  # definitely inactive, pending edges irrelevant
            if unknowns:
                return frozenset(active), unknowns[0]
            active.add(node)
        else:
            if any(v is True for v in values):
                active.add(node)
                continue
            if unknowns:
                return frozenset(active), unknowns[0]
    return frozenset(active), None


def enumerate_scenarios(ctg: ConditionalTaskGraph) -> Tuple[Scenario, ...]:
    """Enumerate every executable scenario of ``ctg``.

    Branch forks are resolved lazily: a branch only contributes outcomes
    when it is activated under the outcomes chosen so far, which yields
    exactly the paper's minterm set (Example 1 produces assignments
    {a₁}, {a₂,b₁}, {a₂,b₂} — i.e. minterms a₁, a₂b₁, a₂b₂).
    """
    scenarios: List[Scenario] = []

    def explore(assignment: Dict[str, str]) -> None:
        active, unresolved = resolve_activation(ctg, assignment)
        if unresolved is None:
            product = ConditionProduct(
                Outcome(branch, label) for branch, label in assignment.items()
            )
            scenarios.append(Scenario(product=product, active=active))
            return
        for label in ctg.outcomes_of(unresolved):
            child = dict(assignment)
            child[unresolved] = label
            explore(child)

    explore({})
    if not scenarios:
        raise CTGError("graph produced no scenarios")
    return tuple(scenarios)


def activation_sets(ctg: ConditionalTaskGraph) -> Dict[str, Tuple[Scenario, ...]]:
    """Map each task to the scenarios that activate it."""
    scenarios = enumerate_scenarios(ctg)
    table: Dict[str, List[Scenario]] = {task: [] for task in ctg.tasks()}
    for scenario in scenarios:
        for task in scenario.active:
            table[task].append(scenario)
    return {task: tuple(items) for task, items in table.items()}


def activation_probability(
    ctg: Optional[ConditionalTaskGraph],
    probabilities: BranchProbabilities,
    scenarios: Optional[Sequence[Scenario]] = None,
) -> Dict[str, float]:
    """prob(τ) for every task: total probability of scenarios running it.

    ``ctg`` may be ``None`` when ``scenarios`` is supplied (the task
    universe is then taken from the scenarios' active sets; a task no
    scenario activates would have probability 0 anyway).
    """
    if scenarios is None:
        if ctg is None:
            raise ValueError("need a graph or a scenario list")
        scenarios = enumerate_scenarios(ctg)
    probs: Dict[str, float] = (
        {task: 0.0 for task in ctg.tasks()} if ctg is not None else {}
    )
    for scenario in scenarios:
        p = scenario.probability(probabilities)
        # sorted so the returned dict's insertion order (and hence any
        # non-key-sorting serialisation) is hash-seed-independent
        for task in sorted(scenario.active):
            probs[task] = probs.get(task, 0.0) + p
    return probs


def gamma(ctg: ConditionalTaskGraph) -> Dict[str, Tuple[ConditionProduct, ...]]:
    """The paper's Γ(τ): structural DNF of each task's activation condition.

    Computed bottom-up over real edges: a source has Γ = {1}; an or-node
    unions the incoming context sets; an and-node takes the pairwise
    consistent conjunction across incoming context sets.  No absorption
    is applied (Example 1 keeps Γ(τ₈) = {1, a₁} although 1 absorbs a₁):
    each entry is one distinct activation context, which is exactly what
    the stretching heuristic iterates over.
    """
    result: Dict[str, Tuple[ConditionProduct, ...]] = {}
    for node in ctg.topological_order():
        in_edges = list(ctg.in_edges(node, include_pseudo=False))
        if not in_edges:
            result[node] = (TRUE,)
            continue
        per_edge: List[List[ConditionProduct]] = []
        for src, _dst, data in in_edges:
            contexts: List[ConditionProduct] = []
            for term in result[src]:
                if data.condition is None:
                    contexts.append(term)
                else:
                    conjoined = term.conjoin_outcome(data.condition)
                    if conjoined is not None:
                        contexts.append(conjoined)
            per_edge.append(contexts)
        if ctg.kind(node) is NodeKind.OR:
            merged: List[ConditionProduct] = [t for terms in per_edge for t in terms]
        else:
            merged = [TRUE]
            for terms in per_edge:
                combined: List[ConditionProduct] = []
                for acc in merged:
                    for term in terms:
                        conjoined = acc.conjoin(term)
                        if conjoined is not None:
                            combined.append(conjoined)
                merged = combined
                if not merged:
                    break
        if not merged:
            raise CTGError(f"task {node!r} has an unsatisfiable activation condition")
        result[node] = minimal_products(merged)
    return result


@dataclass(frozen=True)
class CtgAnalysis:
    """Cached structural analysis of a CTG.

    Scenario enumeration, the mutual-exclusion table and Γ(τ) depend
    only on the graph structure — not on branch probabilities — so the
    adaptive controller computes them once and reuses them across every
    re-scheduling (the per-call cost the paper's 0.6 ms figure counts
    is the list scheduling and slack distribution, not re-deriving the
    graph's minterm structure).

    ``path_cache`` additionally holds the *scheduled-graph* path
    analytics of the stretching stage, keyed by the schedule's
    pseudo-edge/mapping fingerprint (see
    :mod:`repro.scheduling.pathcache`, which owns the contents — this
    class only provides the per-graph home so repeated
    ``schedule_online`` calls that produce the same mapping reuse the
    enumerated path set instead of re-deriving it).

    ``compiled`` is the graph's integer adjacency and reachability
    (:class:`~repro.ctg.compiled.CompiledCtg`), which the list
    scheduler reads instead of walking the graph.
    """

    scenarios: Tuple[Scenario, ...]
    exclusions: Dict[str, FrozenSet[str]]
    gammas: Dict[str, Tuple[ConditionProduct, ...]]
    compiled: CompiledCtg = field(compare=False, repr=False)
    path_cache: Dict[object, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def of(cls, ctg: ConditionalTaskGraph) -> "CtgAnalysis":
        """Analyse a graph (pseudo edges, if any, are ignored)."""
        real = ctg.without_pseudo_edges()
        scenarios = enumerate_scenarios(real)
        return cls(
            scenarios=scenarios,
            exclusions=exclusion_table(real, scenarios),
            gammas=gamma(real),
            compiled=CompiledCtg.of(real),
        )


def mutually_exclusive(
    ctg: ConditionalTaskGraph,
    first: str,
    second: str,
    scenarios: Optional[Sequence[Scenario]] = None,
) -> bool:
    """Whether two tasks can never be activated in the same scenario."""
    if first == second:
        return False
    if scenarios is None:
        scenarios = enumerate_scenarios(ctg)
    return not any(s.activates(first) and s.activates(second) for s in scenarios)


def exclusion_table(
    ctg: ConditionalTaskGraph, scenarios: Optional[Sequence[Scenario]] = None
) -> Dict[str, FrozenSet[str]]:
    """For every task, the set of tasks it is mutually exclusive with."""
    if scenarios is None:
        scenarios = enumerate_scenarios(ctg)
    tasks = ctg.tasks()
    co_active: Dict[str, set] = {task: set() for task in tasks}
    for scenario in scenarios:
        for task in sorted(scenario.active):
            co_active[task].update(scenario.active)
    return {
        task: frozenset(t for t in tasks if t != task and t not in co_active[task])
        for task in tasks
    }

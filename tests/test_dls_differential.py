"""Differential tests: the compiled DLS against its networkx reference.

``tests/oracles/dls_reference.py`` walks the mutable graph for every
structural query; :mod:`repro.scheduling.dls` reads a
:class:`~repro.ctg.compiled.CompiledCtg` and per-call reachability
bitsets.  Both must produce the same schedule to the last bit: the
same placements in the same order, the same pseudo edges added in the
same order, the same communication bookings and the same fingerprint.
"""

from unittest import mock

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctg import CtgAnalysis, GeneratorConfig, generate_ctg
from repro.ctg.compiled import CompiledCtg
from repro.ctg.graph import ConditionalTaskGraph
from repro.platform import PlatformConfig, generate_platform
from repro.scheduling import dls, dls_schedule, schedule_fingerprint, static_levels
from repro.scheduling.baselines import load_balanced_mapping
from repro.workloads.mpeg import mpeg_ctg, mpeg_platform

from .oracles import dls_reference

#: (nodes, branch forks, category) of the paper's Table-1 and Table-4 graphs
SHAPES = sorted(
    {(25, 3, 1), (16, 1, 1), (15, 2, 1), (15, 1, 1)}
    | {(n, b, 2) for n, b in [(25, 3), (16, 1), (15, 2), (15, 1)]}
)


def _instance(shape, pes, seed):
    nodes, branches, category = shape
    ctg = generate_ctg(
        GeneratorConfig(nodes=nodes, branch_nodes=branches, category=category, seed=seed)
    )
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=seed))
    return ctg, platform


def _skewed(ctg, weight):
    """The graph's branch distributions with the first outcome at ``weight``."""
    probabilities = {}
    for branch, distribution in sorted(ctg.default_probabilities.items()):
        labels = list(distribution)
        rest = (1.0 - weight) / (len(labels) - 1)
        probabilities[branch] = {
            label: (weight if i == 0 else rest) for i, label in enumerate(labels)
        }
    return probabilities


def _run(scheduler, ctg, platform, **kwargs):
    """Schedule, recording every add_pseudo_edge call in call order."""
    original = ConditionalTaskGraph.add_pseudo_edge
    with mock.patch.object(
        ConditionalTaskGraph, "add_pseudo_edge", autospec=True, side_effect=original
    ) as spy:
        schedule = scheduler(ctg, platform, **kwargs)
    added = [(call.args[1], call.args[2]) for call in spy.call_args_list]
    return schedule, added


def _assert_identical(ctg, platform, **kwargs):
    got, got_added = _run(dls_schedule, ctg, platform, **kwargs)
    want, want_added = _run(dls_reference.dls_schedule, ctg, platform, **kwargs)
    assert list(got.placements) == list(want.placements)
    assert got.placements == want.placements  # pe, wcet, energy, order_index
    assert got_added == want_added
    assert list(got.ctg.graph.edges) == list(want.ctg.graph.edges)
    assert list(got.ctg.graph.in_edges) == list(want.ctg.graph.in_edges)
    assert got.comm_bookings == want.comm_bookings
    assert schedule_fingerprint(got) == schedule_fingerprint(want)
    return got


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    pes=st.integers(2, 4),
    seed=st.integers(0, 10_000),
    probability_aware=st.booleans(),
    mutex_overlap=st.booleans(),
    fixed=st.booleans(),
    cached=st.booleans(),
    weight=st.floats(0.05, 0.95),
)
def test_dls_matches_reference(
    shape, pes, seed, probability_aware, mutex_overlap, fixed, cached, weight
):
    ctg, platform = _instance(shape, pes, seed)
    _assert_identical(
        ctg,
        platform,
        probabilities=_skewed(ctg, weight),
        probability_aware=probability_aware,
        mutex_overlap=mutex_overlap,
        fixed_mapping=load_balanced_mapping(ctg, platform) if fixed else None,
        analysis=CtgAnalysis.of(ctg) if cached else None,
    )


def test_mpeg_matches_reference():
    ctg, platform = mpeg_ctg(), mpeg_platform()
    for probability_aware in (True, False):
        _assert_identical(
            ctg,
            platform,
            probability_aware=probability_aware,
            mutex_overlap=probability_aware,
            analysis=CtgAnalysis.of(ctg),
        )


def test_input_pseudo_edges_match_reference():
    """A graph that already carries pseudo edges (a scheduled graph fed
    back in) is serialised the same way: its pseudo edges count for
    reachability in both implementations."""
    ctg, platform = _instance((25, 3, 1), 1, 7)
    scheduled = dls_schedule(ctg, platform)
    assert any(data.pseudo for _s, _d, data in scheduled.ctg.edges())
    other = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=8))
    for analysis in (None, CtgAnalysis.of(ctg)):
        _assert_identical(scheduled.ctg, other, analysis=analysis)


def test_static_levels_match_reference():
    ctg, platform = _instance((25, 3, 2), 3, 5)
    probabilities = _skewed(ctg, 0.3)
    for aware in (True, False):
        assert static_levels(ctg, platform, probabilities, aware) == (
            dls_reference.static_levels(ctg, platform, probabilities, aware)
        )


def _bits(row):
    return {i for i in range(row.bit_length()) if row >> i & 1}


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(SHAPES), pes=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_reachability_bitsets(shape, pes, seed):
    """The compiled rows equal ``nx.descendants`` on the real graph, and
    after every pseudo edge DLS adds, the per-call rows equal the
    reachability of the working graph."""
    ctg, platform = _instance(shape, pes, seed)
    compiled = CompiledCtg.of(ctg)
    for name, row in zip(compiled.tasks, compiled.descendants):
        assert {compiled.tasks[i] for i in _bits(row)} == nx.descendants(ctg.graph, name)

    graphs = []
    checked = []
    original_add = ConditionalTaskGraph.add_pseudo_edge
    original_reach = dls._add_reach

    def add_pseudo_edge(graph, src, dst):
        graphs.append(graph)
        original_add(graph, src, dst)

    def add_reach(reach, src, dst):
        original_reach(reach, src, dst)
        working = graphs[-1].graph
        for i, name in enumerate(compiled.tasks):
            assert {compiled.tasks[j] for j in _bits(reach[i])} == nx.descendants(
                working, name
            )
        checked.append((src, dst))

    with mock.patch.object(ConditionalTaskGraph, "add_pseudo_edge", add_pseudo_edge), (
        mock.patch.object(dls, "_add_reach", add_reach)
    ):
        schedule = dls_schedule(ctg, platform)
    pseudo = [(s, d) for s, d, data in schedule.ctg.edges() if data.pseudo]
    assert len(checked) == len(pseudo)

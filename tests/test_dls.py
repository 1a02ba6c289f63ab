"""Unit + property tests for the modified DLS scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctg import GeneratorConfig, figure1_ctg, generate_ctg
from repro.ctg.examples import diamond_ctg, two_sided_branch_ctg
from repro.platform import Platform, PlatformConfig, ProcessingElement, generate_platform
from repro.scheduling import SchedulingError, dls_schedule, static_levels
from repro.scheduling.baselines import load_balanced_mapping
from repro.workloads.mpeg import mpeg_ctg, mpeg_platform


def uniform_platform(ctg, pes=2, wcet=10.0, energy=10.0, bandwidth=1.0):
    platform = Platform([ProcessingElement(f"pe{i}") for i in range(pes)])
    if pes > 1:
        platform.connect_all(bandwidth=bandwidth, energy_per_kbyte=0.1)
    for task in ctg.tasks():
        for pe in platform.pe_names:
            platform.set_task_profile(task, pe, wcet=wcet, energy=energy)
    return platform


class TestStaticLevels:
    def test_chain_levels_accumulate(self):
        ctg = diamond_ctg()
        platform = uniform_platform(ctg)
        levels = static_levels(ctg, platform, {})
        assert levels["join"] == pytest.approx(10.0)
        assert levels["left"] == pytest.approx(20.0)
        assert levels["src"] == pytest.approx(30.0)

    def test_branch_level_probability_weighted(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg)
        probs = {"fork": {"h": 0.8, "l": 0.2}}
        levels = static_levels(ctg, platform, probs, probability_aware=True)
        # fork: 10 + 0.8·SL(heavy) + 0.2·SL(light); heavy/light: 10+10
        assert levels["fork"] == pytest.approx(10 + 0.8 * 20 + 0.2 * 20)

    def test_worst_case_levels_take_max(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg)
        probs = {"fork": {"h": 0.5, "l": 0.5}}
        levels = static_levels(ctg, platform, probs, probability_aware=False)
        assert levels["fork"] == pytest.approx(30.0)

    def test_figure1_prob_weighting_lowers_level(self):
        ctg = figure1_ctg()
        platform = uniform_platform(ctg)
        weighted = static_levels(ctg, platform, ctg.default_probabilities, True)
        worst = static_levels(ctg, platform, ctg.default_probabilities, False)
        assert weighted["t3"] <= worst["t3"]
        # non-branching nodes unaffected
        assert weighted["t6"] == worst["t6"]


class TestDlsBasics:
    def test_all_tasks_placed(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=1))
        sched = dls_schedule(ctg, platform)
        assert set(sched.placements) == set(ctg.tasks())

    def test_original_graph_untouched(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=1))
        edges_before = list(ctg.edges())
        dls_schedule(ctg, platform)
        assert list(ctg.edges()) == edges_before

    def test_schedule_validates(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=1))
        sched = dls_schedule(ctg, platform)
        sched.ctg.deadline = 0.0  # no deadline: structural checks only
        sched.validate()

    def test_deterministic(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=1))
        a = dls_schedule(ctg, platform)
        b = dls_schedule(ctg, platform)
        assert {t: p.pe for t, p in a.placements.items()} == {
            t: p.pe for t, p in b.placements.items()
        }
        assert a.makespan() == b.makespan()

    def test_precedence_respected_in_timing(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=2))
        sched = dls_schedule(ctg, platform)
        times = sched.worst_case_times()
        for src, dst, data in ctg.edges(include_pseudo=False):
            assert times[dst][0] >= times[src][1] - 1e-9

    def test_single_pe_serialises_non_exclusive(self):
        ctg = diamond_ctg()
        platform = uniform_platform(ctg, pes=1)
        sched = dls_schedule(ctg, platform)
        # src, left, right, join must serialise: makespan = 4 × 10
        assert sched.makespan() == pytest.approx(40.0)


class TestMutexOverlap:
    def test_exclusive_arms_share_pe_slot(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg, pes=1)
        sched = dls_schedule(ctg, platform, mutex_overlap=True)
        # entry, fork, (heavy ∥ light), join → 4 slots of 10
        assert sched.makespan() == pytest.approx(40.0)

    def test_disabling_overlap_serialises(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg, pes=1)
        sched = dls_schedule(ctg, platform, mutex_overlap=False)
        assert sched.makespan() == pytest.approx(50.0)

    def test_overlap_never_between_non_exclusive(self):
        ctg = generate_ctg(GeneratorConfig(nodes=20, branch_nodes=2, seed=9))
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=9))
        sched = dls_schedule(ctg, platform)
        times = sched.worst_case_times()
        for pe in platform.pe_names:
            tasks = sched.tasks_on(pe)
            for i, a in enumerate(tasks):
                for b in tasks[i + 1 :]:
                    if sched.are_exclusive(a, b):
                        continue
                    sa, fa = times[a]
                    sb, fb = times[b]
                    assert fa <= sb + 1e-9 or fb <= sa + 1e-9


class TestFixedMapping:
    def test_mapping_respected(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=1))
        mapping = load_balanced_mapping(ctg, platform)
        sched = dls_schedule(ctg, platform, fixed_mapping=mapping)
        assert {t: sched.pe_of(t) for t in ctg.tasks()} == mapping

    def test_missing_task_rejected(self):
        ctg, platform = mpeg_ctg(), mpeg_platform()
        mapping = {task: platform.pe_names[0] for task in ctg.tasks()}
        del mapping["parse"]
        with pytest.raises(SchedulingError, match="no PE for task 'parse'"):
            dls_schedule(ctg, platform, fixed_mapping=mapping)

    def test_unknown_pe_rejected(self):
        ctg, platform = mpeg_ctg(), mpeg_platform()
        mapping = {task: "nope" for task in ctg.tasks()}
        with pytest.raises(SchedulingError, match="task 'parse' on unknown PE 'nope'"):
            dls_schedule(ctg, platform, fixed_mapping=mapping)

    def test_unsupported_pe_rejected(self):
        ctg = diamond_ctg()
        platform = Platform([ProcessingElement("pe0"), ProcessingElement("pe1")])
        platform.connect_all(bandwidth=1.0, energy_per_kbyte=0.1)
        for task in ctg.tasks():
            platform.set_task_profile(task, "pe0", wcet=10.0, energy=10.0)
            if task != "join":
                platform.set_task_profile(task, "pe1", wcet=10.0, energy=10.0)
        mapping = {task: "pe1" for task in ctg.tasks()}
        with pytest.raises(
            SchedulingError, match="task 'join' on PE 'pe1', which does not support it"
        ):
            dls_schedule(ctg, platform, fixed_mapping=mapping)

    def test_load_balanced_mapping_spreads_load(self):
        ctg = generate_ctg(GeneratorConfig(nodes=24, branch_nodes=0, category=2, seed=3))
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=3))
        mapping = load_balanced_mapping(ctg, platform)
        per_pe = {pe: 0 for pe in platform.pe_names}
        for task, pe in mapping.items():
            per_pe[pe] += 1
        assert max(per_pe.values()) - min(per_pe.values()) <= 4


class TestCommunication:
    def test_cross_pe_data_waits_for_transfer(self):
        ctg = diamond_ctg()
        platform = uniform_platform(ctg, pes=2, bandwidth=0.5)
        sched = dls_schedule(ctg, platform)
        times = sched.worst_case_times()
        for src, dst, data in ctg.edges(include_pseudo=False):
            gap = times[dst][0] - times[src][1]
            expected = sched.platform.comm_time(
                sched.pe_of(src), sched.pe_of(dst), data.comm_kbytes
            )
            assert gap >= expected - 1e-9

    def test_comm_bookings_recorded_for_cross_pe_edges(self):
        ctg = diamond_ctg()
        platform = uniform_platform(ctg, pes=2, bandwidth=0.5)
        sched = dls_schedule(ctg, platform)
        cross = [
            (src, dst)
            for src, dst, data in ctg.edges(include_pseudo=False)
            if sched.pe_of(src) != sched.pe_of(dst)
        ]
        booked = {(b.src_task, b.dst_task) for b in sched.comm_bookings}
        assert set(cross) == booked


@settings(max_examples=15, deadline=None)
@given(
    nodes=st.integers(10, 28),
    branches=st.integers(0, 3),
    category=st.sampled_from([1, 2]),
    pes=st.integers(1, 4),
    seed=st.integers(0, 500),
)
def test_dls_invariants(nodes, branches, category, pes, seed):
    """Property: DLS always places every task, respects precedence and
    produces a structurally valid schedule on any generated instance."""
    try:
        cfg = GeneratorConfig(nodes=nodes, branch_nodes=branches, category=category, seed=seed)
    except ValueError:
        return
    ctg = generate_ctg(cfg)
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=seed))
    sched = dls_schedule(ctg, platform)
    assert set(sched.placements) == set(ctg.tasks())
    sched.validate()
    times = sched.worst_case_times()
    for src, dst, _data in ctg.edges(include_pseudo=False):
        assert times[dst][0] >= times[src][1] - 1e-9

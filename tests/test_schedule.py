"""Unit tests for the Schedule data structure."""

import pytest

from repro.ctg import enumerate_scenarios, exclusion_table, figure1_ctg
from repro.ctg.examples import diamond_ctg
from repro.platform import Platform, PlatformConfig, ProcessingElement, generate_platform
from repro.scheduling.schedule import CommBooking, Placement, Schedule, SchedulingError


def make_schedule(ctg=None, pes=2, seed=3):
    ctg = (ctg or figure1_ctg()).copy()
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=seed))
    exclusions = exclusion_table(ctg)
    return Schedule(ctg, platform, exclusions)


class TestPlacement:
    def test_duration_tracks_speed(self):
        p = Placement(task="t", pe="pe0", wcet=10.0, nominal_energy=20.0)
        assert p.duration == 10.0
        p.speed = 0.5
        assert p.duration == 20.0

    def test_energy_quadratic(self):
        p = Placement(task="t", pe="pe0", wcet=10.0, nominal_energy=20.0, speed=0.5)
        assert p.energy(exponent=2.0) == pytest.approx(5.0)


class TestPlacementBookkeeping:
    def test_place_and_query(self):
        sched = make_schedule()
        sched.place("t1", "pe0")
        assert sched.pe_of("t1") == "pe0"
        assert sched.placement("t1").wcet == sched.platform.wcet("t1", "pe0")

    def test_double_place_rejected(self):
        sched = make_schedule()
        sched.place("t1", "pe0")
        with pytest.raises(SchedulingError):
            sched.place("t1", "pe1")

    def test_unplaced_query_raises(self):
        with pytest.raises(SchedulingError):
            make_schedule().placement("t1")

    def test_placement_order_preserved(self):
        sched = make_schedule()
        for task in ("t1", "t3", "t2"):
            sched.place(task, "pe0")
        assert sched.placement_order() == ["t1", "t3", "t2"]

    def test_tasks_on_filters_by_pe(self):
        sched = make_schedule()
        sched.place("t1", "pe0")
        sched.place("t2", "pe1")
        sched.place("t3", "pe0")
        assert sched.tasks_on("pe0") == ["t1", "t3"]
        assert sched.tasks_on("pe1") == ["t2"]

    def test_set_speed_clamped_by_pe(self):
        sched = make_schedule()
        sched.place("t1", "pe0")
        sched.set_speed("t1", 0.01)
        assert sched.placement("t1").speed == sched.platform.pe("pe0").min_speed

    def test_are_exclusive_uses_table(self):
        sched = make_schedule()
        assert sched.are_exclusive("t4", "t5")
        assert not sched.are_exclusive("t1", "t2")


class TestTiming:
    def _full_schedule(self):
        """Place the whole Figure-1 graph on a single PE serialised."""
        ctg = figure1_ctg().copy()
        platform = Platform([ProcessingElement("pe0")])
        for task in ctg.tasks():
            platform.set_task_profile(task, "pe0", wcet=10.0, energy=10.0)
        sched = Schedule(ctg, platform, exclusion_table(ctg))
        previous = None
        for task in ctg.topological_order():
            sched.place(task, "pe0")
            if previous is not None:
                ctg.add_pseudo_edge(previous, task)
            previous = task
        return sched

    def test_serialised_makespan(self):
        sched = self._full_schedule()
        assert sched.makespan() == pytest.approx(80.0)

    def test_stretching_extends_makespan(self):
        sched = self._full_schedule()
        sched.set_speed("t1", 0.5)
        assert sched.makespan() == pytest.approx(90.0)

    def test_meets_deadline(self):
        sched = self._full_schedule()
        sched.ctg.deadline = 80.0
        assert sched.meets_deadline()
        sched.ctg.deadline = 79.0
        assert not sched.meets_deadline()

    def test_comm_delay_counted_cross_pe(self):
        ctg = diamond_ctg().copy()
        platform = Platform([ProcessingElement("pe0"), ProcessingElement("pe1")])
        platform.connect_all(bandwidth=1.0, energy_per_kbyte=0.1)
        for task in ctg.tasks():
            platform.set_task_profile(task, "pe0", wcet=10.0, energy=10.0)
            platform.set_task_profile(task, "pe1", wcet=10.0, energy=10.0)
        sched = Schedule(ctg, platform, exclusion_table(ctg))
        sched.place("src", "pe0")
        sched.place("left", "pe0")
        sched.place("right", "pe1")  # 1 KB transfer at bw 1 → +1 delay
        sched.place("join", "pe0")
        times = sched.worst_case_times()
        assert times["left"][0] == pytest.approx(10.0)
        assert times["right"][0] == pytest.approx(11.0)
        # join waits for right's data to ship back
        assert times["join"][0] == pytest.approx(22.0)


class TestEnergy:
    def test_scenario_energy_counts_active_only(self):
        sched = make_schedule(seed=4)
        for task in sched.ctg.topological_order():
            sched.place(task, "pe0")
        scenarios = {str(s.product): s for s in enumerate_scenarios(sched.ctg)}
        e_a1 = sched.scenario_energy(scenarios["a1"])
        expected = sum(
            sched.placement(t).nominal_energy for t in scenarios["a1"].active
        )
        assert e_a1 == pytest.approx(expected)  # same PE → no comm energy

    def test_expected_energy_is_scenario_mixture(self):
        sched = make_schedule(seed=4)
        for task in sched.ctg.topological_order():
            sched.place(task, "pe0")
        probs = sched.ctg.default_probabilities
        scenarios = enumerate_scenarios(sched.ctg)
        mixture = sum(
            s.probability(probs) * sched.scenario_energy(s) for s in scenarios
        )
        assert sched.expected_energy(probs) == pytest.approx(mixture)

    def test_comm_energy_added_cross_pe(self):
        sched = make_schedule(seed=4)
        order = sched.ctg.topological_order()
        for i, task in enumerate(order):
            sched.place(task, f"pe{i % 2}")
        probs = sched.ctg.default_probabilities
        same_pe = make_schedule(seed=4)
        for task in order:
            same_pe.place(task, "pe0")
        # cross-PE placement must add transfer energy on top of any
        # computation-energy differences
        from repro.ctg.minterms import activation_probability

        cross = sched.expected_energy(probs)
        act = activation_probability(sched.ctg.without_pseudo_edges(), probs)
        base = sum(p * sched.placement(t).nominal_energy for t, p in act.items())
        assert cross > base

    def test_speed_reduces_expected_energy(self):
        sched = make_schedule(seed=4)
        for task in sched.ctg.topological_order():
            sched.place(task, "pe0")
        probs = sched.ctg.default_probabilities
        before = sched.expected_energy(probs)
        sched.set_speed("t1", 0.5)
        after = sched.expected_energy(probs)
        assert after < before


class TestValidation:
    def test_unplaced_task_fails(self):
        sched = make_schedule()
        sched.place("t1", "pe0")
        with pytest.raises(SchedulingError):
            sched.validate()

    def test_overlap_of_non_exclusive_fails(self):
        ctg = diamond_ctg().copy()
        platform = Platform([ProcessingElement("pe0")])
        for task in ctg.tasks():
            platform.set_task_profile(task, "pe0", wcet=10.0, energy=1.0)
        sched = Schedule(ctg, platform, exclusion_table(ctg))
        for task in ctg.topological_order():
            sched.place(task, "pe0")
        # left and right both start at t=10 on pe0 without serialisation
        with pytest.raises(SchedulingError):
            sched.validate()

    def test_mutually_exclusive_overlap_allowed(self):
        from repro.ctg.examples import two_sided_branch_ctg

        ctg = two_sided_branch_ctg().copy()
        platform = Platform([ProcessingElement("pe0")])
        for task in ctg.tasks():
            platform.set_task_profile(task, "pe0", wcet=10.0, energy=1.0)
        sched = Schedule(ctg, platform, exclusion_table(ctg))
        for task in ("entry", "fork", "heavy", "light", "join"):
            sched.place(task, "pe0")
        ctg.add_pseudo_edge("entry", "fork")
        # heavy ∥ light share the slot after fork (they are exclusive)
        ctg.add_pseudo_edge("heavy", "join")
        ctg.add_pseudo_edge("light", "join")
        times = sched.worst_case_times()
        sa, fa = times["heavy"]
        sb, fb = times["light"]
        assert sa < fb and sb < fa  # genuinely overlapping
        sched.validate()  # and accepted because they are exclusive


class TestCommBooking:
    def test_bookings_sorted_by_start(self):
        sched = make_schedule()
        late = CommBooking("a", "b", "pe0", "pe1", start=5.0, duration=1.0, kbytes=1.0)
        early = CommBooking("c", "d", "pe0", "pe1", start=1.0, duration=1.0, kbytes=1.0)
        sched.book_comm(late)
        sched.book_comm(early)
        assert [b.start for b in sched.comm_bookings] == [1.0, 5.0]

    def test_equal_starts_keep_booking_order(self):
        sched = make_schedule()
        starts = [3.0, 1.0, 3.0, 2.0, 1.0, 3.0]
        bookings = [
            CommBooking(f"s{i}", f"d{i}", "pe0", "pe1", start=s, duration=1.0, kbytes=1.0)
            for i, s in enumerate(starts)
        ]
        for booking in bookings:
            sched.book_comm(booking)
        assert sched.comm_bookings == sorted(bookings, key=lambda b: b.start)

    def test_finish_property(self):
        booking = CommBooking("a", "b", "pe0", "pe1", start=2.0, duration=3.0, kbytes=1.0)
        assert booking.finish == 5.0

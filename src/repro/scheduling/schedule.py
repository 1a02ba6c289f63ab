"""Schedule data structure shared by all scheduling algorithms.

A :class:`Schedule` records, for a CTG on a platform:

* the task→PE mapping and per-task relative speed (DVFS setting);
* the serialisation order on each PE (as pseudo edges injected into a
  working copy of the CTG — the paper's "update the CTG to reflect
  this change");
* communication bookings on the point-to-point links.

Timing is *derived*, not stored: :meth:`worst_case_times` propagates
start/finish times topologically over the scheduled graph (real +
pseudo edges, plus cross-PE communication delays), which equals the
longest-path timing the stretching stage reasons about.  Mutually
exclusive tasks may overlap on a PE; everything else is kept apart by
pseudo edges, so the propagation is safe under any later speed change.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..check.tolerances import TIME_EPS
from ..ctg.graph import ConditionalTaskGraph
from ..ctg.minterms import BranchProbabilities, Scenario, enumerate_scenarios
from ..platform.mpsoc import Platform


class SchedulingError(RuntimeError):
    """Raised when a schedule cannot be built or is infeasible."""


@dataclass
class Placement:
    """Mapping + DVFS decision for one task.

    Attributes
    ----------
    task, pe:
        The task and the PE it is mapped to.
    wcet:
        WCET(τ, p) at nominal speed on that PE.
    nominal_energy:
        E(τ, p) at nominal voltage.
    speed:
        Relative speed assigned by the DVFS stage (1.0 = nominal).
    order_index:
        Position in the scheduler's placement order (the task order the
        stretching stage follows).
    """

    task: str
    pe: str
    wcet: float
    nominal_energy: float
    speed: float = 1.0
    order_index: int = 0

    @property
    def duration(self) -> float:
        """Execution time at the assigned speed."""
        return self.wcet / self.speed

    def energy(self, exponent: float = 2.0) -> float:
        """Energy at the assigned speed under ``E ∝ ρ^α``."""
        return self.nominal_energy * self.speed ** exponent


@dataclass(frozen=True)
class CommBooking:
    """One data transfer booked on a point-to-point link."""

    src_task: str
    dst_task: str
    src_pe: str
    dst_pe: str
    start: float
    duration: float
    kbytes: float

    @property
    def finish(self) -> float:
        """End time of the transfer."""
        return self.start + self.duration


class Schedule:
    """A complete mapping/ordering/DVFS solution for a CTG.

    Parameters
    ----------
    ctg:
        Working copy of the graph; the scheduler adds pseudo edges to
        it as tasks are serialised (callers should pass a copy).
    platform:
        The target platform.
    exclusions:
        Mutual-exclusion table (task → set of tasks it can never
        co-execute with), from :func:`repro.ctg.exclusion_table`.
    """

    def __init__(
        self,
        ctg: ConditionalTaskGraph,
        platform: Platform,
        exclusions: Mapping[str, FrozenSet[str]],
    ) -> None:
        self.ctg = ctg
        self.platform = platform
        self.exclusions = dict(exclusions)
        self.placements: Dict[str, Placement] = {}
        self.comm_bookings: List[CommBooking] = []
        self._order_counter = 0

    # ------------------------------------------------------------------
    # Construction (used by the schedulers)
    # ------------------------------------------------------------------
    def place(self, task: str, pe: str) -> Placement:
        """Record the mapping of ``task`` onto ``pe`` at nominal speed."""
        if task in self.placements:
            raise SchedulingError(f"task {task!r} already placed")
        placement = Placement(
            task=task,
            pe=pe,
            wcet=self.platform.wcet(task, pe),
            nominal_energy=self.platform.energy(task, pe),
            order_index=self._order_counter,
        )
        self._order_counter += 1
        self.placements[task] = placement
        return placement

    def book_comm(self, booking: CommBooking) -> None:
        """Record a link transfer (bookings are kept sorted by start;
        equal starts stay in booking order)."""
        insort(self.comm_bookings, booking, key=lambda b: b.start)

    def set_speed(self, task: str, speed: float) -> None:
        """Set the DVFS speed of a task (clamped by its PE's envelope)."""
        placement = self.placement(task)
        placement.speed = self.platform.pe(placement.pe).clamp_speed(speed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def placement(self, task: str) -> Placement:
        """Placement record of a task."""
        try:
            return self.placements[task]
        except KeyError as exc:
            raise SchedulingError(f"task {task!r} not placed") from exc

    def pe_of(self, task: str) -> str:
        """PE a task is mapped to."""
        return self.placement(task).pe

    def tasks_on(self, pe: str) -> List[str]:
        """Tasks mapped to a PE, in placement order."""
        return sorted(
            (t for t, p in self.placements.items() if p.pe == pe),
            key=lambda t: self.placements[t].order_index,
        )

    def placement_order(self) -> List[str]:
        """All placed tasks in the order the scheduler placed them."""
        return sorted(self.placements, key=lambda t: self.placements[t].order_index)

    def are_exclusive(self, a: str, b: str) -> bool:
        """Whether two tasks are mutually exclusive."""
        return b in self.exclusions.get(a, frozenset())

    def execution_times(self) -> Dict[str, float]:
        """Current per-task execution times (WCET / speed)."""
        return {task: p.duration for task, p in self.placements.items()}

    def edge_delays(self) -> Dict[Tuple[str, str], float]:
        """Per real edge communication delay under the current mapping."""
        delays: Dict[Tuple[str, str], float] = {}
        for src, dst, data in self.ctg.edges(include_pseudo=False):
            if src in self.placements and dst in self.placements:
                delays[(src, dst)] = self.platform.comm_time(
                    self.pe_of(src), self.pe_of(dst), data.comm_kbytes
                )
        return delays

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def worst_case_times(self) -> Dict[str, Tuple[float, float]]:
        """Worst-case (start, finish) per task under current speeds.

        Longest-path propagation over real + pseudo edges; a task starts
        when every predecessor has finished and its data (cross-PE
        transfer included) has arrived.  Or-nodes use the same maximum:
        at schedule time the branch decisions are unknown, so the
        conservative bound is over all inputs (paper Example 1).
        """
        times: Dict[str, Tuple[float, float]] = {}
        delays = self.edge_delays()
        for task in self.ctg.topological_order():
            if task not in self.placements:
                continue
            start = 0.0
            for src, _dst, data in self.ctg.in_edges(task, include_pseudo=True):
                if src not in self.placements:
                    continue
                arrival = times[src][1]
                if not data.pseudo:
                    arrival += delays.get((src, task), 0.0)
                start = max(start, arrival)
            times[task] = (start, start + self.placement(task).duration)
        return times

    def makespan(self) -> float:
        """Worst-case completion time of the whole graph."""
        times = self.worst_case_times()
        return max((finish for _start, finish in times.values()), default=0.0)

    def meets_deadline(
        self, deadline: Optional[float] = None, tol: float = TIME_EPS
    ) -> bool:
        """Whether the worst-case makespan meets the (graph's) deadline."""
        limit = self.ctg.deadline if deadline is None else deadline
        return self.makespan() <= limit + tol

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    def expected_energy(
        self,
        probabilities: BranchProbabilities,
        scenarios: Optional[Sequence[Scenario]] = None,
    ) -> float:
        """Expected one-period energy under a branch distribution.

        Computation energy is weighted by each task's activation
        probability; communication energy by the probability that the
        edge actually carries data (both endpoints active and the guard
        satisfied).
        """
        if scenarios is None:
            scenarios = enumerate_scenarios(self.ctg.without_pseudo_edges())
        total = 0.0
        for scenario in scenarios:
            total += scenario.probability(probabilities) * self.scenario_energy(scenario)
        return total

    def scenario_energy(self, scenario: Scenario) -> float:
        """Energy of one period when branches resolve as ``scenario``."""
        exponent = self.platform.dvfs.exponent
        energy = 0.0
        # sorted: set-order summation would make the float total depend
        # on PYTHONHASHSEED, breaking byte-stable artifacts across
        # worker processes
        for task in sorted(scenario.active):
            if task in self.placements:
                energy += self.placements[task].energy(exponent)
        for src, dst, data in self.ctg.edges(include_pseudo=False):
            if src not in scenario.active or dst not in scenario.active:
                continue
            if data.condition is not None and (
                scenario.product.label_for(data.condition.branch) != data.condition.label
            ):
                continue
            if src in self.placements and dst in self.placements:
                energy += self.platform.comm_energy(
                    self.pe_of(src), self.pe_of(dst), data.comm_kbytes
                )
        return energy

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, tol: float = TIME_EPS) -> None:
        """Check structural soundness of the schedule.

        * every CTG task is placed exactly once on a PE that supports it;
        * non-mutually-exclusive tasks on the same PE never overlap in
          the worst-case timing;
        * if the graph has a deadline, the worst-case makespan meets it.
        """
        for task in self.ctg.tasks():
            placement = self.placement(task)
            if not self.platform.supports(task, placement.pe):
                raise SchedulingError(
                    f"task {task!r} mapped to unsupported PE {placement.pe!r}"
                )
        times = self.worst_case_times()
        for pe in self.platform.pe_names:
            tasks = self.tasks_on(pe)
            for i, a in enumerate(tasks):
                for b in tasks[i + 1 :]:
                    if self.are_exclusive(a, b):
                        continue
                    sa, fa = times[a]
                    sb, fb = times[b]
                    if sa < fb - tol and sb < fa - tol:
                        raise SchedulingError(
                            f"tasks {a!r} and {b!r} overlap on {pe!r}: "
                            f"[{sa:.3f},{fa:.3f}) vs [{sb:.3f},{fb:.3f})"
                        )
        if self.ctg.deadline > 0 and not self.meets_deadline(tol=tol):
            raise SchedulingError(
                f"worst-case makespan {self.makespan():.3f} exceeds deadline "
                f"{self.ctg.deadline:.3f}"
            )

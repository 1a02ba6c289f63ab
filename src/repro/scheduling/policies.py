"""Pluggable speed policies: how DVFS speeds are selected and adapted.

The paper's voltage-selection stage (§III.A) is one fixed algorithm —
continuous slack-distribution stretching.  This module lifts it into a
**speed-policy protocol** so alternative families from the follow-up
literature plug into the same stack (``schedule_online``, the adaptive
controller's prestretch cache, the executor, the batch kernels) without
any of those layers knowing which policy runs:

``continuous``
    The paper's policy — :func:`repro.scheduling.stretching
    .stretch_schedule` verbatim, byte-identical to the historical
    behaviour.

``discrete``
    Berten-style discrete level selection (Berten, Chang & Kuo,
    *Discrete Frequency Selection of Frame-Based Stochastic Real-Time
    Tasks*, RTCSA 2008): stretch continuously, round every speed *up*
    onto the PE's frequency table (deadline-safe by construction,
    matching the batch kernels' quantisation pass bit-for-bit), then
    greedily try one level *down* per task — ordered by expected
    energy saving under the task's execution-time distribution —
    keeping a move only when the worst-case makespan still meets the
    deadline.

``preemptive``
    Leung–Tsui slack reclamation (Leung, Tsui et al., *Exploiting
    Dynamic Workload Variation in Low Energy Preemptive Task
    Scheduling*): statically identical to ``continuous``, but at run
    time each task re-budgets its speed when it starts — slack released
    by early-finishing predecessors lowers the speed so the task still
    finishes by its *static worst-case* finish time.  Under a discrete
    frequency table the reclaimed speed generally falls between two
    levels, so the task runs a **dual-segment plan** (the lower level
    first, then the higher) — a preemption point mid-task.  Speeds only
    ever decrease versus the static plan, so total energy never
    increases (property-tested).

``eaps``
    Energy-aware processor scaling: enumerate (frequency level, powered
    cores) configurations, keep the deadline-feasible ones (worst-case
    makespan at the uniform level), and pick the lowest-score one under
    the cubic power model ``P ∝ f³ · cores``; when nothing is feasible,
    fall back to the full platform at maximum performance.

Policies are registered by name in :data:`SPEED_POLICIES` and resolved
with :func:`resolve_speed_policy`; ``--policy`` on ``repro run`` /
``chaos`` / ``trace`` exposes them on the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..check.tolerances import EXACT_EPS, TIME_EPS
from ..platform.mpsoc import Platform, PlatformError
from ..platform.pe import ProcessingElement
from ..profiling import StageProfiler, as_profiler
from .dls import dls_schedule
from .schedule import Schedule, SchedulingError
from .stretching import StretchReport, stretch_schedule

#: Shared default frequency table for policies running on continuous
#: platforms (a platform with its own per-PE table always wins).
DEFAULT_SPEED_LEVELS: Tuple[float, ...] = (0.25, 0.4, 0.55, 0.7, 0.85, 1.0)


def quantize_speed(
    speed: float, min_speed: float, levels: Optional[Tuple[float, ...]]
) -> float:
    """Scalar twin of the batch kernels' ``_clamp_speeds``.

    Envelope clamp into ``[min_speed, 1.0]`` then round *up* to the
    next level (top level when already above all).  Must stay
    bit-identical to :func:`repro.batch.kernels._clamp_speeds` — the
    oracle-agreement tests enforce it.
    """
    clamped = min(1.0, max(min_speed, speed))
    if not levels:
        return clamped
    for level in levels:
        if level >= clamped - EXACT_EPS:
            return level
    return levels[-1]


@dataclass(frozen=True)
class SpeedPolicy:
    """Base class / protocol of one speed-selection family.

    Subclasses override :meth:`apply` (speed selection on a built
    mapping) or :meth:`build` (policies that choose the mapping too,
    flagged by :attr:`builds_schedule`).  The class-level flags tell
    the surrounding layers what the policy needs:

    ``supports_prestretch``
        The adaptive controller may serve this policy from its batched
        prestretch cache (plus :meth:`post_install`).
    ``reclaims_slack``
        The executor re-budgets task speeds at run time
        (:meth:`reclaim_plan`).
    ``builds_schedule``
        ``schedule_online`` delegates mapping *and* speeds to
        :meth:`build`.
    """

    name: str = "continuous"
    supports_prestretch = True
    reclaims_slack = False
    builds_schedule = False

    def cache_key(self) -> object:
        """Hashable identity for prestretch-cache keying."""
        return self.name

    def levels_for(self, pe: ProcessingElement) -> Optional[Tuple[float, ...]]:
        """The level table governing a PE under this policy (None = continuous)."""
        model = pe.frequency_model
        if model.is_discrete and model.levels:
            return tuple(model.levels)
        return None

    def level_table(self, platform: Platform) -> Optional[Dict[str, Tuple[float, ...]]]:
        """Per-PE level tables for the batch kernels, or ``None``."""
        table = {}
        for name in platform.pe_names:
            levels = self.levels_for(platform.pe(name))
            if levels is not None:
                table[name] = levels
        return table or None

    def escalation_speed(self, pe: ProcessingElement) -> float:
        """Top speed degradation escalation may select on a PE."""
        levels = self.levels_for(pe)
        if levels:
            return max(levels)
        return pe.max_speed()

    def apply(
        self,
        schedule: Schedule,
        *,
        probabilities,
        deadline: Optional[float],
        probability_weighted: bool,
        analysis,
        max_passes: int,
        share_exponent: float,
        profiler: Optional[StageProfiler],
    ) -> StretchReport:
        """Select per-task speeds on an already-mapped schedule."""
        raise NotImplementedError

    def post_install(
        self,
        schedule: Schedule,
        deadline: Optional[float],
        profiler: Optional[StageProfiler],
    ) -> None:
        """Scalar post-pass after batched prestretch speeds are installed.

        The controller's cache installs speeds computed by the batched
        kernel (which already applies this policy's quantisation);
        anything the scalar :meth:`apply` does *beyond* quantisation
        happens here so the cached and uncached paths agree.
        """

    def reclaim_plan(
        self,
        placement,
        pe: ProcessingElement,
        start: float,
        budget_finish: float,
    ) -> Tuple[Tuple[float, float], ...]:
        """Run-time speed plan ``((speed, work_fraction), ...)`` for one task.

        Only consulted when :attr:`reclaims_slack` is true.
        """
        return ((placement.speed, 1.0),)

    def build(
        self,
        ctg,
        platform: Platform,
        probabilities,
        *,
        deadline: Optional[float],
        analysis,
        profiler: Optional[StageProfiler],
    ) -> Tuple[Schedule, StretchReport]:
        """Build mapping + speeds (only for :attr:`builds_schedule` policies)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ContinuousSpeedPolicy(SpeedPolicy):
    """The paper's continuous stretching — the historical default."""

    name: str = "continuous"

    def apply(self, schedule, **kwargs) -> StretchReport:
        return stretch_schedule(
            schedule,
            kwargs["probabilities"],
            deadline=kwargs["deadline"],
            probability_weighted=kwargs["probability_weighted"],
            analysis=kwargs["analysis"],
            max_passes=kwargs["max_passes"],
            share_exponent=kwargs["share_exponent"],
            profiler=kwargs["profiler"],
        )


@dataclass(frozen=True)
class DiscreteSpeedPolicy(SpeedPolicy):
    """Berten-style discrete level selection (see module docstring)."""

    name: str = "discrete"
    #: fallback table for PEs without their own frequency table
    levels: Tuple[float, ...] = DEFAULT_SPEED_LEVELS
    #: run the greedy one-level-down refinement after quantisation
    refine: bool = True

    def cache_key(self) -> object:
        return (self.name, self.levels, self.refine)

    def levels_for(self, pe: ProcessingElement) -> Optional[Tuple[float, ...]]:
        own = super().levels_for(pe)
        if own is not None:
            return own
        usable = tuple(s for s in self.levels if s >= pe.min_speed - EXACT_EPS)
        return usable or (1.0,)

    def apply(self, schedule, **kwargs) -> StretchReport:
        base = ContinuousSpeedPolicy.apply(self, schedule, **kwargs)
        profiler = kwargs["profiler"]
        self._quantize(schedule, profiler)
        self.post_install(schedule, kwargs["deadline"], profiler)
        speeds = {task: p.speed for task, p in schedule.placements.items()}
        return StretchReport(
            slack_given=base.slack_given, speeds=speeds, path_count=base.path_count
        )

    def _quantize(self, schedule: Schedule, profiler) -> None:
        """Round every speed up onto its PE's table (kernel-identical)."""
        prof = as_profiler(profiler)
        platform = schedule.platform
        for task in schedule.placement_order():
            placement = schedule.placement(task)
            pe = platform.pe(placement.pe)
            quantized = quantize_speed(
                placement.speed, pe.min_speed, self.levels_for(pe)
            )
            if quantized > placement.speed + EXACT_EPS:
                prof.count("policy.quantized")
            placement.speed = quantized

    def post_install(self, schedule, deadline, profiler) -> None:
        if not self.refine:
            return
        prof = as_profiler(profiler)
        platform = schedule.platform
        limit = schedule.ctg.deadline if deadline is None else deadline
        if limit <= 0:
            return
        # Rank candidate down-moves by expected energy saving: the
        # Berten ingredient — a task that almost never runs long (low
        # mean execution-time ratio) is a poor candidate relative to a
        # heavy one, and the saving itself scales with ρ^α.
        exponent = platform.dvfs.exponent
        moves: List[Tuple[float, str, float]] = []
        for task in schedule.placement_order():
            placement = schedule.placement(task)
            pe = platform.pe(placement.pe)
            levels = self.levels_for(pe)
            if not levels:
                continue
            below = [s for s in levels if s < placement.speed - EXACT_EPS]
            if not below:
                continue
            lower = max(below)
            profile = platform.execution_profile(task)
            ratio = profile.mean_ratio() if profile is not None else 1.0
            saving = (
                placement.nominal_energy
                * ratio
                * (placement.speed**exponent - lower**exponent)
            )
            moves.append((saving, task, lower))
        for _saving, task, lower in sorted(moves, key=lambda m: (-m[0], m[1])):
            placement = schedule.placement(task)
            if lower >= placement.speed - EXACT_EPS:
                continue
            previous = placement.speed
            placement.speed = lower
            if schedule.makespan() > limit + TIME_EPS:
                placement.speed = previous
            else:
                prof.count("policy.refined")


@dataclass(frozen=True)
class PreemptiveSpeedPolicy(SpeedPolicy):
    """Leung–Tsui run-time slack reclamation (see module docstring)."""

    name: str = "preemptive"
    reclaims_slack = True

    def apply(self, schedule, **kwargs) -> StretchReport:
        return ContinuousSpeedPolicy.apply(self, schedule, **kwargs)

    def reclaim_plan(
        self, placement, pe, start: float, budget_finish: float
    ) -> Tuple[Tuple[float, float], ...]:
        static_speed = placement.speed
        window = budget_finish - start
        if window <= TIME_EPS:
            return ((static_speed, 1.0),)
        # The lowest speed that still finishes the full WCET inside the
        # static worst-case window.  Never exceed the static speed:
        # reclamation only ever slows a task down, which is what makes
        # the no-extra-energy property unconditional.
        ideal = max(pe.min_speed, placement.wcet / window)
        ideal = min(ideal, static_speed)
        levels = self.levels_for(pe)
        if not levels:
            return ((ideal, 1.0),)
        high = quantize_speed(ideal, pe.min_speed, levels)
        high = min(high, static_speed)
        below = [s for s in levels if pe.min_speed - EXACT_EPS <= s < high - EXACT_EPS]
        if not below:
            return ((high, 1.0),)
        low = max(below)
        # Dual-segment split: run fraction (1-x) of the work at the low
        # level first, then x at the high level, finishing exactly at
        # the budget.  x solves w(1-x)/low + wx/high = window.
        w = placement.wcet
        denom = w / low - w / high
        if denom <= TIME_EPS:
            return ((high, 1.0),)
        x = (w / low - window) / denom
        if x <= 0.0:
            return ((low, 1.0),)
        if x >= 1.0:
            return ((high, 1.0),)
        return ((low, 1.0 - x), (high, x))


@dataclass(frozen=True)
class EapsSpeedPolicy(SpeedPolicy):
    """Energy-aware (frequency, cores) configuration search."""

    name: str = "eaps"
    supports_prestretch = False
    builds_schedule = True
    #: candidate uniform frequency levels
    levels: Tuple[float, ...] = DEFAULT_SPEED_LEVELS

    def cache_key(self) -> object:
        return (self.name, self.levels)

    def build(self, ctg, platform, probabilities, *, deadline, analysis, profiler):
        prof = as_profiler(profiler)
        limit = ctg.deadline if deadline is None else deadline
        names = platform.pe_names
        best: Optional[Tuple[float, float, int, Schedule]] = None
        if limit > 0:
            for cores in range(1, len(names) + 1):
                try:
                    sub = platform.restricted(names[:cores])
                    candidate = dls_schedule(
                        ctg, sub, probabilities, analysis=analysis, profiler=profiler
                    )
                except (PlatformError, SchedulingError):
                    continue
                for level in self.levels:
                    prof.count("policy.eaps_configs")
                    for task in candidate.placement_order():
                        candidate.set_speed(task, level)
                    makespan = candidate.makespan()
                    if makespan > limit + TIME_EPS:
                        continue
                    # Cubic power model: P ∝ f³ · cores, E = P · T.
                    score = cores * level**3 * makespan
                    if best is None or (score, level, cores) < best[:3]:
                        speeds = {
                            t: candidate.placement(t).speed
                            for t in candidate.placement_order()
                        }
                        best = (score, level, cores, (candidate, speeds))
        if best is None:
            # Fallback to maximum performance: full platform, nominal speed.
            schedule = dls_schedule(
                ctg, platform, probabilities, analysis=analysis, profiler=profiler
            )
            for task in schedule.placement_order():
                schedule.set_speed(task, 1.0)
        else:
            schedule, speeds = best[3]
            for task, speed in speeds.items():
                schedule.placement(task).speed = speed
        if deadline is not None:
            schedule.ctg.deadline = deadline
        report = StretchReport(
            speeds={t: p.speed for t, p in schedule.placements.items()}
        )
        return schedule, report


#: Policy registry — names appear on ``--policy`` next to the
#: degradation-policy names (``default``/``escalate-only``/``none``).
SPEED_POLICIES: Dict[str, Callable[[], SpeedPolicy]] = {
    "continuous": ContinuousSpeedPolicy,
    "discrete": DiscreteSpeedPolicy,
    "preemptive": PreemptiveSpeedPolicy,
    "eaps": EapsSpeedPolicy,
}

#: Shared continuous singleton.
CONTINUOUS_POLICY = ContinuousSpeedPolicy()


def resolve_speed_policy(
    policy: Union[None, str, SpeedPolicy]
) -> SpeedPolicy:
    """Resolve a policy given by name, instance, or ``None`` (= continuous)."""
    if policy is None:
        return CONTINUOUS_POLICY
    if isinstance(policy, SpeedPolicy):
        return policy
    try:
        factory = SPEED_POLICIES[policy]
    except KeyError as exc:
        known = ", ".join(sorted(SPEED_POLICIES))
        raise ValueError(f"unknown speed policy {policy!r} (known: {known})") from exc
    return factory()

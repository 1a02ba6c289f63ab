"""Threshold-triggered adaptive re-scheduling (paper §III.B).

The controller owns the current schedule and a
:class:`~repro.adaptive.window.WindowProfiler`.  After every executed
CTG instance it shifts the observed branch decisions into the windows;
when the windowed distribution drifts further than ``threshold`` from
the distribution the running schedule was built with, the online
scheduling + DVFS algorithm is re-invoked with the windowed
probabilities, the in-use distribution snaps to the new estimate, and
the call counter increments (the paper's Table 2 / Tables 4–5 "# of
calls" column; the snap behaviour is Figure 4's "filtered Prob"
staircase).

Re-scheduling reuses the structural analysis *and* the path-analytics
cache across calls (``CtgAnalysis.path_cache``): when drift changes the
probabilities but DLS reproduces the same mapping — the common case —
the stretching stage skips path enumeration entirely.  The controller's
``profiler`` accumulates per-stage timings and the cache hit/miss
counters over the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..ctg.graph import ConditionalTaskGraph
from ..ctg.minterms import CtgAnalysis
from ..platform.mpsoc import Platform
from ..profiling import StageProfiler
from ..scheduling.dls import dls_schedule
from ..scheduling.online import OnlineResult, full_speed_schedule, schedule_online
from ..scheduling.pathcache import (
    freeze_probabilities,
    schedule_fingerprint,
    structure_for,
)
from ..scheduling.policies import SpeedPolicy, resolve_speed_policy
from ..scheduling.schedule import SchedulingError
from ..scheduling.stretching import StretchReport
from .window import WindowProfiler


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive framework.

    Attributes
    ----------
    window_size:
        Sliding-window length L (paper: 20).
    threshold:
        Probability-drift threshold T triggering re-scheduling
        (paper: 0.5 and 0.1).
    cooldown:
        Minimum number of instances between re-scheduling calls (an
        extension: the paper bounds the overhead only through the
        threshold; a cooldown bounds it *directly* regardless of how
        wildly the statistics swing).  0 disables rate limiting.
    check:
        Debug hook: statically verify every schedule the controller
        installs (initial build and each re-scheduling) and raise
        :class:`repro.check.CheckError` on any error-severity finding.
        Costs a full scenario sweep per call — leave off outside tests
        and debugging sessions.
    """

    window_size: int = 20
    threshold: float = 0.1
    cooldown: int = 0
    check: bool = False

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window size must be positive")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class AdaptiveController:
    """Runtime manager pairing the profiler with the online algorithm.

    Parameters
    ----------
    ctg, platform:
        The application and its target MPSoC (the graph's deadline is
        used for every re-scheduling).
    initial_probabilities:
        The profiled distribution the first schedule is built with
        (also seeds the windows, as the paper does: "the initial branch
        probabilities of algorithm are taken same as the profiled
        probabilities of online algorithm").
    config:
        Window length and threshold; ``None`` uses the defaults.  (A
        fresh :class:`AdaptiveConfig` is created per controller — the
        config is a mutable dataclass, so a shared default instance
        would leak state between controllers.)
    profiler:
        Optional estimator instance replacing the default sliding
        window — anything with ``observe`` / ``distributions`` /
        ``max_deviation`` (e.g.
        :class:`~repro.adaptive.predictors.ExponentialProfiler`).
    stage_profiler:
        Optional :class:`~repro.profiling.StageProfiler` accumulating
        hot-path timings and cache counters across every re-scheduling
        call; the controller creates a private one when not given
        (exposed as :attr:`stats`).
    speed_policy:
        A :class:`~repro.scheduling.policies.SpeedPolicy` (or registry
        name) selecting the speed-selection family for every schedule
        the controller builds; ``None`` resolves to the paper's
        continuous stretching.  The prestretch cache is keyed per
        policy and only consulted when the policy supports it.
    """

    def __init__(
        self,
        ctg: ConditionalTaskGraph,
        platform: Platform,
        initial_probabilities: Mapping[str, Mapping[str, float]],
        config: Optional[AdaptiveConfig] = None,
        profiler=None,
        stage_profiler: Optional[StageProfiler] = None,
        speed_policy: Union[None, str, SpeedPolicy] = None,
    ) -> None:
        self.ctg = ctg
        self.platform = platform
        self.config = config if config is not None else AdaptiveConfig()
        self.policy = resolve_speed_policy(speed_policy)
        self.stats = stage_profiler if stage_profiler is not None else StageProfiler()
        self.in_use: Dict[str, Dict[str, float]] = {
            branch: dict(dist) for branch, dist in initial_probabilities.items()
        }
        branch_labels = {b: ctg.outcomes_of(b) for b in ctg.branch_nodes()}
        self.profiler = profiler if profiler is not None else WindowProfiler(
            branch_labels, self.config.window_size, initial=self.in_use
        )
        self.calls = 0
        self.call_log: List[int] = []
        self._instance = 0
        # Structural analysis is probability-independent: derive once,
        # reuse for every re-scheduling call.  Its path_cache also keeps
        # the per-mapping path analytics warm across calls.
        self._analysis = CtgAnalysis.of(ctg)
        # (mapping fingerprint, frozen distribution) → pre-stretched
        # speeds; filled by prestretch(), consumed by reschedule()
        self._prestretched: Dict[
            Tuple[object, object], Tuple[Dict[str, float], Dict[str, float], int]
        ] = {}
        self.current: OnlineResult = schedule_online(
            ctg,
            platform,
            self.in_use,
            analysis=self._analysis,
            profiler=self.stats,
            check=self.config.check,
            speed_policy=self.policy,
        )

    @property
    def schedule(self):
        """The schedule instances currently execute under."""
        return self.current.schedule

    def observe(self, decisions: Mapping[str, str]) -> bool:
        """Feed one instance's executed branch decisions to the profiler.

        Returns ``True`` when the drift crossed the threshold and the
        online algorithm was re-invoked (subsequent instances run under
        the new schedule).  Equivalent to :meth:`record` +
        :meth:`wants_reschedule` + :meth:`reschedule`; the faulted
        runner drives those pieces separately so dropped/delayed
        invocations can intervene between the decision and the call.
        """
        self.record(decisions)
        if not self.wants_reschedule():
            return False
        self.reschedule()
        return True

    # -- the observe() pipeline, exposed piecewise ----------------------
    def record(self, decisions: Mapping[str, str]) -> None:
        """Advance the instance clock and shift decisions into the
        windows (no re-scheduling decision is taken here)."""
        self._instance += 1
        self.profiler.observe(decisions)

    def drift(self) -> float:
        """Current worst-branch deviation of the windowed estimate from
        the distribution the running schedule was built with."""
        return self.profiler.max_deviation(self.in_use)

    def cooldown_active(self) -> bool:
        """Whether the rate limiter currently vetoes re-scheduling."""
        return bool(
            self.config.cooldown
            and self.call_log
            and self._instance - self.call_log[-1] < self.config.cooldown
        )

    def wants_reschedule(self) -> bool:
        """Whether the threshold policy calls for re-scheduling now."""
        if self.cooldown_active():
            return False
        drift = self.drift()
        if drift <= self.config.threshold:
            return False
        self.stats.event(
            "drift.detected",
            drift=round(drift, 6),
            threshold=self.config.threshold,
            instance=self._instance,
        )
        return True

    def reschedule(self, emergency: bool = False, on_error: str = "raise") -> bool:
        """Re-invoke the online algorithm with the windowed estimate.

        ``emergency`` marks an out-of-band invocation (a degradation
        policy reacting to a deadline miss rather than the drift
        threshold) — it is counted separately (``reschedule.emergency``)
        but otherwise identical.  ``on_error`` selects what a
        :class:`~repro.scheduling.schedule.SchedulingError` does:
        ``"raise"`` propagates it (the drift-loop default),
        ``"fallback"`` installs the full-speed DLS fallback schedule so
        a chaos run keeps going.  Returns ``True`` when the fallback
        was installed.
        """
        if on_error not in ("raise", "fallback"):
            raise ValueError(f"unknown on_error mode {on_error!r}")
        self.in_use = self.profiler.distributions()
        used_fallback = False
        if (
            self._prestretched
            and not self.config.check
            and self.policy.supports_prestretch
            and self._install_prestretched()
        ):
            return self._finish_reschedule(emergency, used_fallback)
        try:
            self.current = schedule_online(
                self.ctg,
                self.platform,
                self.in_use,
                analysis=self._analysis,
                profiler=self.stats,
                check=self.config.check,
                speed_policy=self.policy,
            )
        except SchedulingError:
            if on_error == "raise":
                raise
            self.current = full_speed_schedule(
                self.ctg,
                self.platform,
                self.in_use,
                analysis=self._analysis,
                profiler=self.stats,
            )
            self.stats.count("reschedule.fallback")
            used_fallback = True
        return self._finish_reschedule(emergency, used_fallback)

    def _finish_reschedule(self, emergency: bool, used_fallback: bool) -> bool:
        """Shared bookkeeping tail of every re-scheduling invocation."""
        self.calls += 1
        self.stats.count("reschedule.calls")
        if emergency:
            self.stats.count("reschedule.emergency")
        self.call_log.append(self._instance)
        self.stats.event(
            "reschedule.invoked",
            call=self.calls,
            instance=self._instance,
            emergency=emergency,
            fallback=used_fallback,
        )
        return used_fallback

    # -- batched pre-stretching fast path --------------------------------
    def prestretch(
        self, candidates: Sequence[Mapping[str, Mapping[str, float]]]
    ) -> int:
        """Pre-compute DVFS speeds for anticipated distributions.

        Runs DLS once per candidate to find its mapping, groups the
        candidates by mapping fingerprint (drift rarely changes the
        mapping, so one group is the common case) and stretches each
        group in a single :func:`~repro.batch.batched_stretch` sweep.
        A later :meth:`reschedule` whose windowed estimate matches a
        pre-stretched (mapping, distribution) pair installs the cached
        speeds and skips the stretching stage entirely — the batch
        fast path of the re-schedule loop, counted as
        ``reschedule.prestretched``.

        Returns the number of (mapping, distribution) pairs cached so
        far.  The cache is only consulted when ``config.check`` is off
        (the checked path always runs the full, verified pipeline).
        """
        # local import: repro.batch builds on the scheduling layer, so
        # importing it at module scope would be a cycle hazard as the
        # batch package grows adaptive-aware helpers
        from ..batch import BatchSchedule, batched_stretch

        if not self.policy.supports_prestretch:
            return len(self._prestretched)
        key = self.policy.cache_key()
        levels = self.policy.level_table(self.platform)
        groups: Dict[object, Tuple[object, List[Tuple[object, Dict]]]] = {}
        for dist in candidates:
            snapshot = {b: dict(d) for b, d in dist.items()}
            frozen = freeze_probabilities(snapshot)
            schedule = dls_schedule(
                self.ctg,
                self.platform,
                snapshot,
                analysis=self._analysis,
                profiler=self.stats,
            )
            fingerprint = schedule_fingerprint(schedule)
            if (key, fingerprint, frozen) in self._prestretched:
                continue
            entry = groups.setdefault(fingerprint, (schedule, []))
            entry[1].append((frozen, snapshot))
        for fingerprint, (schedule, pairs) in groups.items():
            if not pairs:
                continue
            batch = BatchSchedule.from_ctg(schedule, self._analysis)
            structure = structure_for(
                schedule,
                self._analysis.scenarios,
                cache=self._analysis.path_cache,
                profiler=self.stats,
            )
            report = batched_stretch(
                batch, structure, [d for _, d in pairs], levels=levels
            )
            for i, (frozen, _) in enumerate(pairs):
                self._prestretched[(key, fingerprint, frozen)] = (
                    report.speed_map(i),
                    {
                        task: float(report.slack_given[i, t])
                        for t, task in enumerate(report.tasks)
                    },
                    report.path_count,
                )
        return len(self._prestretched)

    def _install_prestretched(self) -> bool:
        """Try serving :attr:`in_use` from the pre-stretched cache.

        Re-runs DLS (mappings must match, and the placement is cheap
        relative to stretching) and installs the cached speeds on a
        fingerprint + distribution hit.  Returns ``False`` on a miss,
        in which case the caller falls through to the full pipeline.
        """
        frozen = freeze_probabilities(self.in_use)
        with self.stats.stage("online"):
            with self.stats.stage("dls"):
                schedule = dls_schedule(
                    self.ctg,
                    self.platform,
                    self.in_use,
                    analysis=self._analysis,
                    profiler=self.stats,
                )
            cached = self._prestretched.get(
                (self.policy.cache_key(), schedule_fingerprint(schedule), frozen)
            )
            if cached is None:
                return False
            speeds, slack_given, path_count = cached
            for task, speed in speeds.items():
                schedule.set_speed(task, speed)
            # The kernel applied the policy's quantisation; anything the
            # scalar apply() does beyond it (e.g. the discrete policy's
            # greedy refinement) happens here so both paths agree.
            self.policy.post_install(schedule, None, self.stats)
            # re-read: post_install may have refined individual levels
            speeds = {task: schedule.placement(task).speed for task in speeds}
            self.current = OnlineResult(
                schedule=schedule,
                stretch=StretchReport(
                    slack_given=dict(slack_given),
                    speeds=dict(speeds),
                    path_count=path_count,
                ),
                profile=self.stats,
            )
        self.stats.count("reschedule.prestretched")
        return True

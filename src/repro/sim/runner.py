"""Trace-driven evaluation of the adaptive and non-adaptive policies.

This is the experimental harness of the paper's §IV: a *trace* (one
branch decision vector per CTG instance) is replayed against

* the **non-adaptive online** policy — one schedule built from profiled
  training probabilities and kept for the whole run ("online" in the
  paper's tables), and
* the **adaptive** policy — the same online algorithm re-invoked by the
  windowed threshold controller as statistics drift.

Both report total/mean energy, per-instance energies, deadline misses
and (for the adaptive policy) the number of re-scheduling calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from ..adaptive.controller import AdaptiveConfig, AdaptiveController
from ..ctg.graph import ConditionalTaskGraph
from ..faults.injectors import FaultInjector, rotate_label
from ..faults.log import FaultLog, RecoveryAction
from ..faults.plan import FaultPlan
from ..faults.policy import DegradationPolicy
from ..obs.trace import Tracer, TracingProfiler, as_tracer
from ..platform.mpsoc import Platform
from ..profiling import StageProfiler
from ..scheduling.online import schedule_online
from ..scheduling.policies import SpeedPolicy, resolve_speed_policy
from .executor import InstanceExecutor
from .vectors import Trace


class _ExecutionTimeSampler:
    """Per-instance execution-time ratio sampler.

    Draws one WCET ratio per profiled task per instance from the
    platform's :class:`~repro.platform.distributions
    .ExecutionTimeDistribution` objects (sorted task order, one seeded
    stream — deterministic for a given seed).  ``None``-like (inactive)
    when the platform carries no profiles.
    """

    def __init__(self, platform: Platform, seed: int) -> None:
        self._profiles = platform.execution_profiles()
        self._rng = random.Random(seed)

    @property
    def active(self) -> bool:
        return bool(self._profiles)

    def draw(self) -> Dict[str, float]:
        return {task: dist.sample(self._rng) for task, dist in self._profiles}


def _run_profiler(tracer: Tracer) -> StageProfiler:
    """The profiler a runner threads through its layers: a plain
    :class:`StageProfiler` without tracing (identical dicts either
    way), a :class:`TracingProfiler` feeding ``tracer`` with it."""
    return TracingProfiler(tracer) if tracer.enabled else StageProfiler()


def _advance_sim_offset(tracer: Tracer, ctg: ConditionalTaskGraph, finish: float) -> None:
    """Move the simulated-time origin past the instance just executed
    so successive instances render end to end on the trace timeline
    (the CTG's period equals its deadline; deadline-free graphs advance
    by the instance's own finish time)."""
    period = ctg.deadline if ctg.deadline > 0 else finish
    tracer.sim_offset += period


@dataclass
class RunResult:
    """Aggregate outcome of replaying a trace under one policy.

    Attributes
    ----------
    energies:
        Per-instance energy, in trace order.
    reschedule_calls:
        How many times the online algorithm was re-invoked (0 for the
        non-adaptive policy).
    call_instances:
        Instance indices (1-based) at which re-scheduling happened.
    deadline_misses:
        Number of instances finishing past the deadline (0 by
        construction for schedules built by this package).
    profile:
        Stage timings and counters of the whole run — scheduling stages
        (``dls``, ``stretch``, cache hit/miss counters), instance
        replay (``executor.replay`` / ``executor.instances``) and, for
        the adaptive policy, ``reschedule.calls``.
    fault_log:
        Faulted runs only (:func:`run_faulted`): the structured record
        of every injected fault and recovery action, with the
        miss/recovery/energy-cost summary the chaos artifacts expose.
    """

    energies: List[float] = field(default_factory=list)
    reschedule_calls: int = 0
    call_instances: List[int] = field(default_factory=list)
    deadline_misses: int = 0
    profile: Optional[StageProfiler] = None
    fault_log: Optional[FaultLog] = None

    @property
    def total_energy(self) -> float:
        """Sum of all instance energies (re-scheduling overhead excluded)."""
        return sum(self.energies)

    @property
    def mean_energy(self) -> float:
        """Average energy per instance (0 for an empty trace)."""
        return self.total_energy / len(self.energies) if self.energies else 0.0

    def total_with_overhead(self, energy_per_call: float) -> float:
        """Total energy including a per-re-scheduling-call cost.

        The paper neglects the overhead of the online algorithm itself
        but motivates the threshold by it ("appropriate threshold
        selection minimizes the overhead"); this puts a number on the
        trade-off (see the overhead ablation bench).
        """
        return self.total_energy + self.reschedule_calls * energy_per_call

    def break_even_overhead(self, baseline: "RunResult") -> float:
        """Per-call overhead at which this run's saving over ``baseline``
        vanishes (``inf`` when no calls were made)."""
        if self.reschedule_calls == 0:
            return float("inf")
        return (baseline.total_energy - self.total_energy) / self.reschedule_calls


def run_non_adaptive(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    trace: Trace,
    probabilities: Mapping[str, Mapping[str, float]],
    deadline: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    speed_policy: Union[None, str, SpeedPolicy] = None,
    et_seed: Optional[int] = None,
) -> RunResult:
    """Replay a trace under a single schedule built from ``probabilities``.

    ``probabilities`` is the profiled training distribution (the paper's
    "online"/"non-adaptive" rows); it is *not* updated during the run.
    A ``deadline`` override is applied to a private copy of the graph —
    the caller's CTG object is never mutated (same contract as
    :func:`run_adaptive`).  ``tracer`` (optional) records the span/event
    timeline of the run (see :mod:`repro.obs.trace`); ``profile``
    contents are identical with or without it.  ``speed_policy`` selects
    the speed-selection family (``None`` resolves to the paper's
    continuous stretching); ``et_seed`` activates stochastic
    execution times when the platform carries per-task distributions —
    each instance then replays sampled WCET ratios through the
    executor's dynamic path.
    """
    if deadline is not None:
        ctg = ctg.copy()
        ctg.deadline = deadline
    trc = as_tracer(tracer)
    stats = _run_profiler(trc)
    pol = resolve_speed_policy(speed_policy)
    sampler = (
        _ExecutionTimeSampler(platform, et_seed) if et_seed is not None else None
    )
    if sampler is not None and not sampler.active:
        sampler = None
    online = schedule_online(
        ctg, platform, probabilities, profiler=stats, speed_policy=pol
    )
    executor = InstanceExecutor(
        online.schedule, profiler=stats, tracer=trc, speed_policy=pol
    )
    result = RunResult(profile=stats)
    for vector in trace:
        if sampler is not None:
            outcome = executor.run(vector, work_ratios=sampler.draw())
        else:
            outcome = executor.run(vector)
        result.energies.append(outcome.energy)
        if not outcome.deadline_met:
            result.deadline_misses += 1
        if trc.enabled:
            _advance_sim_offset(trc, ctg, outcome.finish_time)
    return result


def run_adaptive(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    trace: Trace,
    initial_probabilities: Mapping[str, Mapping[str, float]],
    config: Optional[AdaptiveConfig] = None,
    deadline: Optional[float] = None,
    profiler=None,
    tracer: Optional[Tracer] = None,
    speed_policy: Union[None, str, SpeedPolicy] = None,
    et_seed: Optional[int] = None,
) -> RunResult:
    """Replay a trace under the window/threshold adaptive policy.

    Each instance executes under the *current* schedule; its executed
    branch decisions are then shifted into the profiler, possibly
    triggering re-scheduling that takes effect from the next instance
    (the paper: "each time after a branch fork task is executed, a new
    branch decision is shifted into the buffer").  ``profiler`` swaps
    the estimator (default: the paper's sliding window); ``config``
    defaults to a fresh :class:`AdaptiveConfig` (never a shared
    instance — the config is mutable).  ``tracer`` (optional) records
    the run's span/event timeline — scheduling stages, per-task
    simulated spans, a ``sim.reschedule`` event at every schedule
    swap — without changing the ``profile`` dicts.
    """
    if deadline is not None:
        ctg = ctg.copy()
        ctg.deadline = deadline
    trc = as_tracer(tracer)
    stats = _run_profiler(trc)
    pol = resolve_speed_policy(speed_policy)
    sampler = (
        _ExecutionTimeSampler(platform, et_seed) if et_seed is not None else None
    )
    if sampler is not None and not sampler.active:
        sampler = None
    controller = AdaptiveController(
        ctg,
        platform,
        initial_probabilities,
        config,
        profiler=profiler,
        stage_profiler=stats,
        speed_policy=pol,
    )
    executor = InstanceExecutor(
        controller.schedule, profiler=stats, tracer=trc, speed_policy=pol
    )
    branches = ctg.branch_nodes()
    result = RunResult(profile=stats)
    for index, vector in enumerate(trace):
        if sampler is not None:
            outcome = executor.run(vector, work_ratios=sampler.draw())
        else:
            outcome = executor.run(vector)
        result.energies.append(outcome.energy)
        if not outcome.deadline_met:
            result.deadline_misses += 1
        executed = {
            b: vector[b] for b in branches if b in outcome.scenario.active
        }
        if controller.observe(executed):
            executor = InstanceExecutor(
                controller.schedule, profiler=stats, tracer=trc, speed_policy=pol
            )
            if trc.enabled:
                trc.event(
                    "sim.reschedule",
                    ts=outcome.finish_time,
                    category="sim.event",
                    instance=index + 1,
                    call=controller.calls,
                )
        if trc.enabled:
            _advance_sim_offset(trc, ctg, outcome.finish_time)
    result.reschedule_calls = controller.calls
    result.call_instances = list(controller.call_log)
    return result


def run_faulted(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    trace: Trace,
    initial_probabilities: Mapping[str, Mapping[str, float]],
    plan: FaultPlan,
    policy: Optional[DegradationPolicy] = None,
    config: Optional[AdaptiveConfig] = None,
    deadline: Optional[float] = None,
    profiler=None,
    tracer: Optional[Tracer] = None,
    speed_policy: Union[None, str, SpeedPolicy] = None,
) -> RunResult:
    """Replay a trace under the adaptive policy with faults injected.

    The loop is :func:`run_adaptive` with three interception points:

    * each instance executes through
      :meth:`~repro.sim.executor.InstanceExecutor.run_faulted`, which
      times a *baseline* (no-reaction) arm alongside the *policy* arm —
      an instance counts as **threatened** when the baseline arm misses
      the deadline, **recovered** when the policy arm then meets it,
      and **unrecovered** when even the policy arm misses;
    * branch observations pass through the plan's corruption faults
      *before* reaching the controller's windows (execution itself uses
      the true decisions — it is the estimator that is lied to);
    * re-schedule invocations pass through the drop/delay faults: a
      dropped or deferred invocation is retried ``policy.retry_backoff``
      instances later, doubling the backoff per failed retry up to
      ``policy.max_retries`` attempts; an unrecovered miss triggers an
      emergency re-schedule (when the policy allows), and a
      re-scheduling *failure* installs the full-speed fallback
      schedule rather than crashing the run.

    Under a discrete ``speed_policy`` whose frequency table tops out
    below 1.0, escalation cannot exceed the table's highest level; a
    miss that even a 1.0-ceiling escalation of the *same* decisions
    would have avoided is classified as a **quantization loss**
    (``fault_log.quantization_losses``, counter
    ``fault.quantization_loss``) rather than an unrecovered miss — it
    is a property of the frequency table, not of the recovery policy.

    Every fault and every reaction lands in ``result.fault_log``; the
    run's :class:`~repro.profiling.StageProfiler` picks up the matching
    counters (``fault.*``, ``reschedule.dropped`` / ``.emergency`` /
    ``.fallback``).  ``tracer`` (optional) additionally places every
    injected fault, escalation, recovery outcome and schedule swap on
    the simulated timeline (``sim.fault`` / ``sim.escalation`` /
    ``sim.recovered`` / ``sim.unrecovered`` / ``sim.reschedule``).
    """
    policy = policy or DegradationPolicy.default()
    if deadline is not None:
        ctg = ctg.copy()
        ctg.deadline = deadline
    trc = as_tracer(tracer)
    stats = _run_profiler(trc)
    pol = resolve_speed_policy(speed_policy)
    controller = AdaptiveController(
        ctg,
        platform,
        initial_probabilities,
        config,
        profiler=profiler,
        stage_profiler=stats,
        speed_policy=pol,
    )
    injector = FaultInjector(plan, ctg=ctg, platform=platform)
    executor = InstanceExecutor(
        controller.schedule, profiler=stats, tracer=trc, speed_policy=pol
    )
    branches = ctg.branch_nodes()
    outcomes = {b: ctg.outcomes_of(b) for b in branches}
    log = FaultLog()
    result = RunResult(profile=stats, fault_log=log)
    # one pending (dropped/delayed) re-schedule incident at a time:
    # [due_instance, attempts_left, current_backoff]
    pending: Optional[List[int]] = None
    sim_cursor = 0.0

    for index, vector in enumerate(trace):
        if trc.enabled:
            trc.sim_offset = sim_cursor
        faults = injector.faults_at(index)
        for event in faults.events:
            log.record(event)
            if trc.enabled:
                trc.event(
                    "sim.fault",
                    ts=0.0,
                    category="sim.event",
                    instance=index,
                    kind=event.kind,
                    target=event.target,
                    severity=event.severity,
                )
        if not faults.empty:
            stats.count("fault.injected", len(faults.events))

        outcome = executor.run_faulted(vector, faults, policy)
        result.energies.append(outcome.energy)
        if trc.enabled:
            sim_cursor += ctg.deadline if ctg.deadline > 0 else outcome.finish_time
        if not outcome.deadline_met:
            result.deadline_misses += 1
            if outcome.quantization_loss:
                log.quantization_losses += 1
                stats.count("fault.quantization_loss")
            else:
                log.unrecovered += 1
        threatened = outcome.baseline_deadline_met is False
        if threatened:
            log.threatened += 1
            stats.count("fault.threatened")
            if outcome.deadline_met:
                log.recovered += 1
                log.act(RecoveryAction(index, "recovered"))
            elif outcome.quantization_loss:
                log.act(RecoveryAction(index, "quantization_loss"))
            else:
                log.act(RecoveryAction(index, "unrecovered"))
            if trc.enabled:
                trc.event(
                    "sim.recovered" if outcome.deadline_met else "sim.unrecovered",
                    ts=outcome.finish_time,
                    category="sim.event",
                    instance=index,
                )
        if outcome.baseline_energy is not None:
            log.policy_energy += outcome.energy
            log.baseline_energy += outcome.baseline_energy
        if outcome.overrun_detected:
            log.act(
                RecoveryAction(
                    index, "escalate", f"{len(outcome.escalated)} tasks to max speed"
                )
            )
            stats.count("fault.escalations")
            if trc.enabled:
                trc.event(
                    "sim.escalation",
                    ts=outcome.finish_time,
                    category="sim.event",
                    instance=index,
                    escalated=len(outcome.escalated),
                )

        # estimator sees the (possibly corrupted) observations
        observed: dict = {}
        for branch in branches:
            if branch not in outcome.scenario.active:
                continue
            label = vector[branch]
            rotation = faults.branch_rotations.get(branch, 0)
            if rotation:
                label = rotate_label(outcomes[branch], label, rotation)
                stats.count("fault.corrupted_observations")
            observed[branch] = label
        controller.record(observed)

        wants = controller.wants_reschedule()
        retry_due = pending is not None and index >= pending[0]
        emergency = bool(policy.emergency_reschedule and not outcome.deadline_met)
        if not (wants or retry_due or emergency):
            continue
        if faults.drop_reschedule or faults.delay_reschedule:
            # the invocation is lost (drop) or deferred (delay)
            if faults.drop_reschedule:
                stats.count("reschedule.dropped")
                defer = policy.retry_backoff
            else:
                stats.count("reschedule.delayed")
                defer = faults.delay_reschedule
            if pending is None:
                pending = [index + defer, policy.max_retries, defer]
                log.act(
                    RecoveryAction(
                        index, "reschedule_retry", f"retry at instance {pending[0]}"
                    )
                )
            else:
                pending[1] -= 1
                if pending[1] <= 0:
                    log.act(
                        RecoveryAction(index, "reschedule_retry", "retries exhausted")
                    )
                    pending = None
                else:
                    pending[2] *= 2
                    pending[0] = index + pending[2]
                    log.act(
                        RecoveryAction(
                            index,
                            "reschedule_retry",
                            f"retry at instance {pending[0]}",
                        )
                    )
            continue
        if emergency and not wants:
            log.act(RecoveryAction(index, "emergency_reschedule"))
        used_fallback = controller.reschedule(emergency=emergency, on_error="fallback")
        if used_fallback:
            log.act(RecoveryAction(index, "fallback_schedule"))
        executor = InstanceExecutor(
            controller.schedule, profiler=stats, tracer=trc, speed_policy=pol
        )
        if trc.enabled:
            trc.event(
                "sim.reschedule",
                ts=outcome.finish_time,
                category="sim.event",
                instance=index,
                call=controller.calls,
                emergency=emergency,
                fallback=used_fallback,
            )
        pending = None

    result.reschedule_calls = controller.calls
    result.call_instances = list(controller.call_log)
    return result


def energy_savings(non_adaptive: RunResult, adaptive: RunResult) -> float:
    """Relative energy saving of the adaptive policy (paper's headline
    percentage): ``1 − adaptive / non-adaptive``."""
    if non_adaptive.total_energy == 0:
        return 0.0
    return 1.0 - adaptive.total_energy / non_adaptive.total_energy

"""One-kernel Monte-Carlo sweep over sampled CTG instances.

The object layer answers "what happens over 10 000 periods?" by
replaying 10 000 :class:`~repro.sim.executor.InstanceExecutor` runs —
one Python graph walk each.  This module answers it with numpy:

1. sample every branch's outcome for all ``n`` instances at once
   (one ``Generator.choice`` per branch, seeded and reproducible);
2. map each sampled decision vector to its minterm by matching
   against the scenario assignment table (each full vector matches
   exactly one minterm — the products partition the outcome space);
3. evaluate finish times and energies:

   * **shared-scenario fast path** (no execution-time variation):
     instances that sampled the same scenario share its finish time
     and energy, so one ``(S,)`` propagation plus a gather serves all
     ``n`` instances — this is where the order-of-magnitude speedup
     over the replay loop comes from;
   * **per-instance path** (``wcet_range``): uniform work ratios are
     sampled per (instance, task) and propagated with
     :func:`~repro.batch.kernels.instance_finish_times`.

No per-instance Python objects are created; the result is a bundle of
``(n,)`` arrays.  The executor remains the oracle: the property suite
replays sampled decision vectors through it and compares elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..check.tolerances import TIME_EPS
from ..ctg.minterms import CtgAnalysis
from ..profiling import as_profiler
from ..scheduling.online import schedule_online
from .kernels import (
    instance_energies,
    instance_finish_times,
    scenario_energies,
    scenario_finish_times,
)
from .soa import BatchSchedule


@dataclass(frozen=True)
class MonteCarloResult:
    """Distributions from one Monte-Carlo sweep (all arrays ``(n,)``).

    ``label_samples`` keeps the raw per-branch outcome indices so any
    instance can be replayed through the scalar executor
    (:meth:`decisions`) — the oracle hook of the property suite.
    """

    n: int
    seed: int
    deadline: float
    branches: Tuple[str, ...]
    branch_labels: Tuple[Tuple[str, ...], ...]
    label_samples: np.ndarray  #: (n, B) outcome index per branch
    scenario_indices: np.ndarray  #: (n,) minterm of each instance
    finish_times: np.ndarray
    energies: np.ndarray
    deadline_met: np.ndarray  #: (n,) bool
    wcet_factors: Optional[np.ndarray] = None  #: (n, T) when sampled

    @property
    def miss_rate(self) -> float:
        """Fraction of instances that missed the deadline."""
        return 1.0 - float(self.deadline_met.mean())

    @property
    def mean_energy(self) -> float:
        """Mean energy per period."""
        return float(self.energies.mean())

    @property
    def mean_finish(self) -> float:
        """Mean finish time per period."""
        return float(self.finish_times.mean())

    def finish_percentile(self, q: float) -> float:
        """``q``-th percentile (0–100) of the finish-time distribution."""
        return float(np.percentile(self.finish_times, q))

    def scenario_counts(self, n_scenarios: int) -> np.ndarray:
        """How many instances sampled each minterm, ``(S,)``."""
        return np.bincount(self.scenario_indices, minlength=n_scenarios)

    def decisions(self, i: int) -> Dict[str, str]:
        """Instance ``i``'s sampled outcomes as a full decision vector
        (every branch, active or not — the executor's input format)."""
        return {
            branch: self.branch_labels[b][int(self.label_samples[i, b])]
            for b, branch in enumerate(self.branches)
        }

    def summary(self) -> Dict[str, float]:
        """Headline statistics as a plain JSON-friendly dict."""
        return {
            "n": float(self.n),
            "mean_finish": self.mean_finish,
            "p95_finish": self.finish_percentile(95.0),
            "mean_energy": self.mean_energy,
            "miss_rate": self.miss_rate,
        }


def monte_carlo(
    ctg,
    platform,
    n: int,
    seed: int = 0,
    probabilities=None,
    schedule=None,
    wcet_range: Optional[Tuple[float, float]] = None,
    analysis: Optional[CtgAnalysis] = None,
    batch: Optional[BatchSchedule] = None,
    profiler=None,
    speed_policy=None,
    use_execution_profiles: bool = False,
) -> MonteCarloResult:
    """Sample and evaluate ``n`` instances of a scheduled CTG at once.

    Parameters
    ----------
    ctg, platform:
        The application and its MPSoC.
    n:
        Number of sampled instances.
    seed:
        Seed of the sampling :func:`numpy.random.default_rng` stream.
        Branch outcomes are drawn first (one call per branch in
        ``ctg.branch_nodes()`` order), then — only when ``wcet_range``
        is given — the ``(n, T)`` work-ratio matrix; the draw order is
        part of the reproducibility contract.
    probabilities:
        Branch distributions to sample from; defaults to the graph's
        profiled ones (also what the schedule is built for when
        ``schedule`` is omitted).
    schedule:
        The schedule to evaluate; omitted, the online algorithm builds
        one (DLS + stretching) for ``probabilities``.
    wcet_range:
        Optional ``(lo, hi)`` uniform range of per-(instance, task)
        work ratios — the non-deterministic-workload axis.  ``None``
        keeps every task at its WCET and enables the shared-scenario
        fast path.
    analysis:
        Optional pre-computed :class:`CtgAnalysis` (shares scenario
        enumeration with the caller).
    batch:
        Optional pre-built :class:`BatchSchedule` snapshot; overrides
        ``schedule``.
    profiler:
        Optional stage profiler — the sweep runs under the
        ``batch.sweep`` stage and counts ``batch.instances``.
    speed_policy:
        A :class:`~repro.scheduling.policies.SpeedPolicy` (or registry
        name) applied when the sweep builds its own schedule: the
        policy acts at schedule-build time (e.g. ``"discrete"``
        quantises and refines the captured speeds), so the sweep itself
        stays one kernel call regardless of policy.  Ignored when
        ``schedule``/``batch`` is supplied (those carry their speeds
        already); ``None`` resolves to the paper's continuous
        stretching.
    use_execution_profiles:
        Sample per-(instance, task) work ratios from the platform's
        per-task execution-time distributions (tasks without a profile
        run at WCET).  Profile draws happen *after* the branch and
        ``wcet_range`` draws, so the default (off) leaves the
        historical draw order untouched; combined with ``wcet_range``
        the two ratio matrices multiply.
    """
    if n < 1:
        raise ValueError("monte_carlo needs at least one instance")
    prof = as_profiler(profiler)
    if probabilities is None:
        probabilities = ctg.default_probabilities
    if batch is None:
        if schedule is None:
            schedule = schedule_online(
                ctg,
                platform,
                probabilities,
                analysis=analysis,
                profiler=prof,
                speed_policy=speed_policy,
            ).schedule
        batch = BatchSchedule.from_ctg(schedule, analysis)

    with prof.stage("batch.sweep"):
        rng = np.random.default_rng(seed)
        n_branches = len(batch.branches)
        samples = np.zeros((n, n_branches), dtype=np.intp)
        for b, branch in enumerate(batch.branches):
            labels = batch.branch_labels[b]
            weights = np.asarray([probabilities[branch][l] for l in labels], float)
            samples[:, b] = rng.choice(len(labels), size=n, p=weights / weights.sum())

        # match each full decision vector to its minterm: a scenario
        # matches iff every branch it executes sampled its label
        scn = np.full(n, -1, dtype=np.intp)
        for s in range(batch.n_scenarios):
            row = batch.assignment[s]
            match = np.ones(n, dtype=bool)
            for b in np.nonzero(row >= 0)[0]:
                match &= samples[:, b] == row[b]
            scn[match] = s
        if (scn < 0).any():
            raise RuntimeError("sampled decision vector matches no scenario")

        factors = None
        if wcet_range is not None:
            lo, hi = wcet_range
            factors = rng.uniform(lo, hi, size=(n, batch.n_tasks))
        if use_execution_profiles and batch.platform.has_execution_profiles:
            et = np.ones((n, batch.n_tasks))
            for task, dist in batch.platform.execution_profiles():
                t = batch.task_index.get(task)
                if t is None:
                    continue
                ratios = np.asarray(dist.ratios, dtype=float)
                weights = np.asarray(dist.weights, dtype=float)
                idx = rng.choice(ratios.size, size=n, p=weights / weights.sum())
                et[:, t] = ratios[idx]
            factors = et if factors is None else factors * et
        if factors is not None:
            finish = instance_finish_times(batch, scn, factors)
            energy = instance_energies(batch, scn, factors)
        else:
            finish = scenario_finish_times(batch)[scn]
            energy = scenario_energies(batch)[scn]

        deadline = batch.deadline
        if deadline <= 0:
            met = np.ones(n, dtype=bool)
        else:
            met = finish <= deadline + TIME_EPS
        prof.count("batch.instances", n)

    return MonteCarloResult(
        n=n,
        seed=seed,
        deadline=deadline,
        branches=batch.branches,
        branch_labels=batch.branch_labels,
        label_samples=samples,
        scenario_indices=scn,
        finish_times=finish,
        energies=energy,
        deadline_met=met,
        wcet_factors=factors,
    )

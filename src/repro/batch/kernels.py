"""Batched numpy kernels over a :class:`~repro.batch.soa.BatchSchedule`.

Three kernels, each the array twin of a named object-layer routine
that serves as its oracle:

* :func:`scenario_finish_times` /  :func:`instance_finish_times` —
  the replay loop of :meth:`InstanceExecutor.run
  <repro.sim.executor.InstanceExecutor.run>`, vectorized over
  *scenarios × instances* instead of one decision vector at a time;
* :func:`instance_energies` — the energy bookkeeping of the executor
  (including the ``wcet_factors`` baseline arm of ``run_faulted``:
  energy scales linearly with the realised work ratio);
* :func:`batched_stretch` — the single-schedule stretching kernels
  (``_stretch_vectorized`` in :mod:`repro.scheduling.stretching`)
  extended from one schedule instance to ``N`` probability
  distributions along a leading axis.

``batched_stretch`` replaces the single-schedule kernel's per-task
*claimant sweep* (stable sort + ``argmax``/``bincount``) with an equivalent
per-scenario reduction: for every minterm ``s`` covered by a task's
uncertain spanning paths, the claimant construction assigns ``s``'s
probability to the *smallest* uncertain ratio among the paths that can
occur under ``s`` — so

``slk1 = wcet · (Σ_s p_s · min_ratio(s)) / (Σ_s p_s) · prob(τ)``

summed over covered scenarios.  That form needs no per-instance sort
and batches over ``N`` with one masked-min per scenario.  Summation
order differs from the scalar sweep, so agreement is within float
accumulation error (the property suite compares against the scalar
loop under the shared tolerances), not bit-exact.

The object-walking implementations remain authoritative: these kernels
are performance twins, validated against them, never the other way
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..check.tolerances import CERTAIN_TOL, EXACT_EPS, TIME_EPS
from ..scheduling.pathcache import PathStructure
from ..scheduling.stretching import SchedulingError, _NO_PATHS
from .soa import BatchSchedule

#: ``BranchProbabilities`` — branch → {label: probability}
Distribution = Dict[str, Dict[str, float]]


# ----------------------------------------------------------------------
# Instance replay
# ----------------------------------------------------------------------
def scenario_finish_times(
    batch: BatchSchedule, wcet_factors: Optional[np.ndarray] = None
) -> np.ndarray:
    """Finish time of every scenario, optionally per instance.

    Without ``wcet_factors`` the result is ``(S,)`` — the makespan of
    each minterm at the captured speeds (one tiny ``(1, S, T)``
    propagation; this is the Monte-Carlo fast path, since instances
    sharing a scenario share its finish time).  With a ``(N, T)``
    factor matrix the result is ``(N, S)``; note the transient is
    ``(N, S, T)`` floats, so prefer :func:`instance_finish_times` when
    every instance already knows its scenario.
    """
    durations = batch.durations
    if wcet_factors is None:
        dur = durations[np.newaxis, :]
    else:
        dur = np.asarray(wcet_factors, dtype=float) * durations[np.newaxis, :]
    n = dur.shape[0]
    n_scen = batch.n_scenarios
    n_tasks = batch.n_tasks
    finish = np.zeros((n, n_scen, n_tasks))
    in_ptr, dec_ptr = batch.in_ptr, batch.dec_ptr
    for t in range(n_tasks):
        start = np.zeros((n, n_scen))
        for e in range(in_ptr[t], in_ptr[t + 1]):
            mask = batch.edge_scenario[e]
            cand = finish[:, :, batch.in_src[e]] + batch.in_delay[e]
            start = np.where(mask[np.newaxis, :], np.maximum(start, cand), start)
        for k in range(dec_ptr[t], dec_ptr[t + 1]):
            b = batch.dec_src[k]
            mask = batch.active[:, b]
            start = np.where(
                mask[np.newaxis, :], np.maximum(start, finish[:, :, b]), start
            )
        finish[:, :, t] = start + dur[:, t : t + 1]
    # inactive tasks were propagated too but never read through a live
    # edge; mask them out of the makespan exactly like the executor's
    # ``max(finishes.values(), default=0.0)``
    masked = np.where(batch.active[np.newaxis, :, :], finish, 0.0)
    out = masked.max(axis=2)
    return out[0] if wcet_factors is None else out


def instance_finish_times(
    batch: BatchSchedule,
    scenario_indices: np.ndarray,
    wcet_factors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Finish time of ``N`` instances, each pinned to its scenario.

    The per-instance twin of :func:`scenario_finish_times`: state is
    ``(N, T)`` instead of ``(N, S, T)``, with every edge masked by its
    applicability under each instance's own scenario.  This is the
    kernel the Monte-Carlo sweep uses when execution times vary per
    instance (``wcet_factors``), where scenarios no longer share
    finish times.
    """
    scn = np.asarray(scenario_indices, dtype=np.intp)
    durations = batch.durations
    if wcet_factors is None:
        dur = np.broadcast_to(durations, (scn.size, batch.n_tasks))
    else:
        dur = np.asarray(wcet_factors, dtype=float) * durations[np.newaxis, :]
    n = scn.size
    finish = np.zeros((n, batch.n_tasks))
    in_ptr, dec_ptr = batch.in_ptr, batch.dec_ptr
    for t in range(batch.n_tasks):
        start = np.zeros(n)
        for e in range(in_ptr[t], in_ptr[t + 1]):
            mask = batch.edge_scenario[e, scn]
            cand = finish[:, batch.in_src[e]] + batch.in_delay[e]
            start = np.where(mask, np.maximum(start, cand), start)
        for k in range(dec_ptr[t], dec_ptr[t + 1]):
            b = batch.dec_src[k]
            mask = batch.active[scn, b]
            start = np.where(mask, np.maximum(start, finish[:, b]), start)
        finish[:, t] = start + dur[:, t]
    masked = np.where(batch.active[scn], finish, 0.0)
    return masked.max(axis=1)


def scenario_energies(
    batch: BatchSchedule,
    levels: Optional[Dict[str, Tuple[float, ...]]] = None,
) -> np.ndarray:
    """Per-scenario energy at the captured speeds, ``(S,)``.

    Active-task DVFS energies plus the precomputed per-scenario
    communication energy — :meth:`Schedule.scenario_energy
    <repro.scheduling.schedule.Schedule.scenario_energy>` as one
    matvec (summation order differs, agreement is within float
    accumulation error).

    ``levels`` (pe name → ascending level tuple, e.g. a speed policy's
    :meth:`~repro.scheduling.policies.SpeedPolicy.level_table`) applies
    the discrete-DVFS quantisation pass first: every captured speed is
    rounded up onto its PE's table (bit-identical to the scalar
    :func:`~repro.scheduling.policies.quantize_speed`) before the
    energy matvec.  ``None`` evaluates the speeds as captured.
    """
    energies = (
        batch.task_energies()
        if not levels
        else _quantized_task_energies(batch, levels)
    )
    return batch.active @ energies + batch.comm_energy


def _quantized_task_energies(
    batch: BatchSchedule, levels: Dict[str, Tuple[float, ...]]
) -> np.ndarray:
    """Per-task energies after rounding speeds up onto per-PE tables."""
    speed = np.array(batch.speed, dtype=float, copy=True)
    for p, name in enumerate(batch.pe_names):
        table = levels.get(name)
        if table is None:
            continue
        pe = batch.platform.pe(name)
        mask = batch.pe_of == p
        if mask.any():
            speed[mask] = _clamp_speeds(
                speed[mask], pe.min_speed, np.asarray(table, dtype=float)
            )
    return batch.nominal_energy * speed ** batch.platform.dvfs.exponent


def instance_energies(
    batch: BatchSchedule,
    scenario_indices: np.ndarray,
    wcet_factors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-instance energy, ``(N,)``.

    With ``wcet_factors``, each active task's energy scales by its
    realised work ratio — the ``run_faulted`` baseline-arm convention
    (``baseline_energy = scenario_energy + Σ nominal·(ratio − 1)``).
    """
    scn = np.asarray(scenario_indices, dtype=np.intp)
    energies = batch.task_energies()
    if wcet_factors is None:
        per_scenario = batch.active @ energies + batch.comm_energy
        return per_scenario[scn]
    factors = np.asarray(wcet_factors, dtype=float)
    task_part = (batch.active[scn] * energies[np.newaxis, :] * factors).sum(axis=1)
    return task_part + batch.comm_energy[scn]


# ----------------------------------------------------------------------
# Batched stretching
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchedTables:
    """Probability tables of one structure for ``N`` distributions.

    The leading-axis twin of :class:`~repro.scheduling.pathcache.ProbabilityTables`:
    every array gains an instance axis; ``act_prob`` becomes a dense
    ``(N, T)`` matrix over ``task_list`` instead of a dict.
    """

    scenario_probs: np.ndarray  #: (N, S)
    prob_after_flat: np.ndarray  #: (N, F)
    act_prob: np.ndarray  #: (N, T) over ``structure.task_list``


def batched_tables(
    structure: PathStructure, distributions: Sequence[Distribution]
) -> BatchedTables:
    """Build the probability tables of ``N`` distributions at once.

    Mirrors ``PathStructure._build_tables`` with an instance axis: the
    suffix products run per conditional hop over ``(N,)`` probability
    columns, and activation probabilities come from one
    ``scenario_probs @ membership`` matvec.
    """
    n = len(distributions)
    n_scen = len(structure.scenarios)
    scenario_probs = np.empty((n, n_scen))
    for s, scenario in enumerate(structure.scenarios):
        for i, dist in enumerate(distributions):
            scenario_probs[i, s] = scenario.probability(dist)
    outcome_probs = np.empty((n, len(structure.outcome_columns)))
    for c, (branch, label) in enumerate(structure.outcome_columns):
        for i, dist in enumerate(distributions):
            outcome_probs[i, c] = dist[branch][label]
    columns: List[np.ndarray] = []
    for cols in structure.path_cond_cols:
        suffix = [np.ones(n)]
        acc = np.ones(n)
        for col in reversed(cols):
            acc = outcome_probs[:, col] * acc
            suffix.append(acc)
        suffix.reverse()
        columns.extend(suffix)
    values = np.stack(columns, axis=1) if columns else np.empty((n, 0))
    prob_after_flat = np.repeat(values, structure.segment_counts, axis=1)
    task_active = np.zeros((n_scen, len(structure.task_list)), dtype=bool)
    for s, scenario in enumerate(structure.scenarios):
        for t, task in enumerate(structure.task_list):
            task_active[s, t] = task in scenario.active
    act_prob = scenario_probs @ task_active
    return BatchedTables(
        scenario_probs=scenario_probs,
        prob_after_flat=prob_after_flat,
        act_prob=act_prob,
    )


@dataclass
class BatchStretchReport:
    """Result of one :func:`batched_stretch` call.

    ``speeds`` and ``slack_given`` are ``(N, T)`` over
    :attr:`BatchSchedule.tasks`; row ``i`` is what the scalar
    ``stretch_schedule`` would have reported for distribution ``i``.
    """

    tasks: Tuple[str, ...]
    speeds: np.ndarray
    slack_given: np.ndarray
    path_count: int

    def speed_map(self, i: int) -> Dict[str, float]:
        """Per-task speeds of instance ``i`` as a plain dict."""
        return {task: float(self.speeds[i, t]) for t, task in enumerate(self.tasks)}


def batched_stretch(
    batch: BatchSchedule,
    structure: PathStructure,
    distributions: Sequence[Distribution],
    deadline: Optional[float] = None,
    probability_weighted: bool = True,
    max_passes: int = 1,
    share_exponent: float = 1.0,
    levels: Optional[Dict[str, Tuple[float, ...]]] = None,
) -> BatchStretchReport:
    """Stretch one schedule under ``N`` distributions in one sweep.

    The batched twin of ``_stretch_vectorized``: identical task order
    (placement order), identical grant/clamp/bookkeeping per task, but
    every scalar becomes an ``(N,)`` vector.  Instances converge
    independently — a row whose pass granted less than the epsilon is
    frozen (grants forced to zero) while the others keep going.

    ``levels`` overrides the per-PE frequency tables (pe name →
    ascending level tuple; PEs absent from the mapping keep their own
    ``speed_levels``).  This is how a speed policy's
    :meth:`~repro.scheduling.policies.SpeedPolicy.level_table` reaches
    the kernel — each clamp then quantises up exactly like the scalar
    :func:`~repro.scheduling.policies.quantize_speed`.

    Zero-probability path pruning is intentionally unsupported here
    (it would give every instance a different spanning set); use
    :func:`~repro.scheduling.stretching.stretch_schedule` for that mode.
    """
    if structure.path_count == 0:
        raise SchedulingError(_NO_PATHS)
    limit = batch.deadline if deadline is None else deadline
    if limit <= 0:
        raise SchedulingError("stretching needs a positive deadline")
    n = len(distributions)
    tables = batched_tables(structure, distributions)
    membership = structure.membership

    task_list = structure.task_list
    pos = {task: t for t, task in enumerate(task_list)}
    batch_col = np.asarray([batch.task_index[task] for task in task_list], dtype=np.intp)
    wcet = batch.wcet[batch_col]
    exec0 = wcet / batch.speed[batch_col]

    # per-structure-column clamp parameters
    pes = [batch.platform.pe(batch.pe_names[int(batch.pe_of[c])]) for c in batch_col]
    min_speed = np.asarray([pe.min_speed for pe in pes])
    overrides = levels or {}
    level_tables = []
    for pe in pes:
        table = overrides.get(pe.name, pe.speed_levels)
        level_tables.append(
            None if table is None else np.asarray(table, dtype=float)
        )

    durations = np.tile(exec0, (n, 1))
    delay0 = structure.delay_vector(batch.to_schedule(), exec0)
    slack = np.tile(limit - delay0, (n, 1))
    stretchable = np.tile(structure.stretchable_vector(exec0), (n, 1))

    # the nominal schedule is shared by every instance, so feasibility
    # is a single check, same message as the scalar path
    worst = float((limit - delay0).min())
    if worst < -TIME_EPS:
        raise SchedulingError(
            f"nominal schedule infeasible: most critical path exceeds the "
            f"deadline by {-worst:.3f}"
        )

    order = sorted(range(len(batch.tasks)), key=lambda t: int(batch.order_index[t]))
    order_cols = [pos[batch.tasks[t]] for t in order]

    speeds = np.tile(batch.speed[batch_col], (n, 1))
    slack_given = np.zeros((n, len(task_list)))
    alive = np.ones(n, dtype=bool)
    epsilon = 1e-9 * limit
    for _ in range(max(1, max_passes)):
        granted = np.zeros(n, dtype=float)
        for col in order_cols:
            task = task_list[col]
            idx = structure.spanning_idx[task]
            if idx.size == 0:
                continue
            flat = structure.spanning_flat[task]
            duration = durations[:, col]
            span_slack = slack[:, idx]
            span_stretchable = stretchable[:, idx]
            ratio = np.zeros_like(span_slack)
            positive = span_stretchable > 0
            np.divide(
                np.maximum(span_slack, 0.0),
                span_stretchable,
                out=ratio,
                where=positive,
            )
            grant = _batched_slack(
                duration,
                ratio,
                tables.prob_after_flat[:, flat],
                membership[idx],
                tables.scenario_probs,
                tables.act_prob[:, col] ** share_exponent,
                probability_weighted,
            )
            grant = np.minimum(grant, span_slack.min(axis=1))
            grant = np.maximum(grant, 0.0)
            grant = np.where(alive, grant, 0.0)
            slack_given[:, col] += grant

            new_speed = _clamp_speeds(
                wcet[col] / (duration + grant), min_speed[col], level_tables[col]
            )
            new_duration = wcet[col] / new_speed
            speeds[:, col] = new_speed
            consumed = new_duration - duration
            granted += consumed
            slack[:, idx] -= consumed[:, np.newaxis]
            stretchable[:, idx] -= duration[:, np.newaxis]
            durations[:, col] = new_duration
        alive &= granted > epsilon
        if not alive.any():
            break
        stretchable = np.add.reduceat(
            durations[:, structure.node_gather], structure.node_starts, axis=1
        )

    # re-index from structure column space to batch task space
    speeds_out = np.empty((n, len(batch.tasks)))
    slack_out = np.empty((n, len(batch.tasks)))
    for col, task in enumerate(task_list):
        t = batch.task_index[task]
        speeds_out[:, t] = speeds[:, col]
        slack_out[:, t] = slack_given[:, col]
    return BatchStretchReport(
        tasks=batch.tasks,
        speeds=speeds_out,
        slack_given=slack_out,
        path_count=structure.path_count,
    )


def _clamp_speeds(
    speed: np.ndarray, min_speed: float, levels: Optional[np.ndarray]
) -> np.ndarray:
    """Vectorized :meth:`ProcessingElement.clamp_speed` for one PE."""
    clamped = np.clip(speed, min_speed, 1.0)
    if levels is None:
        return clamped
    idx = np.searchsorted(levels, clamped - EXACT_EPS, side="left")
    return levels[np.minimum(idx, levels.size - 1)]


def _batched_slack(
    wcet_duration: np.ndarray,
    ratio: np.ndarray,
    prob_after: np.ndarray,
    mem_rows: np.ndarray,
    scenario_probs: np.ndarray,
    task_prob: np.ndarray,
    probability_weighted: bool,
) -> np.ndarray:
    """CalculateSlack(τ) for ``N`` instances at once.

    Per-scenario form of the claimant sweep (see module docstring):
    for each minterm covered by any spanning path of the task, the
    scenario's probability weights the smallest *uncertain* ratio of
    the paths it can occur under.
    """
    if ratio.shape[1] == 0:
        return np.zeros(ratio.shape[0])
    if not probability_weighted:
        return wcet_duration * ratio.min(axis=1)

    n = ratio.shape[0]
    uncertain = prob_after < 1.0 - CERTAIN_TOL
    num = np.zeros(n, dtype=float)
    den = np.zeros(n, dtype=float)
    for s in np.nonzero(mem_rows.any(axis=0))[0]:
        cols = mem_rows[:, s]
        r = np.where(uncertain[:, cols], ratio[:, cols], np.inf).min(axis=1)
        covered = np.isfinite(r)
        p = scenario_probs[:, s] * covered
        num += p * np.where(covered, r, 0.0)
        den += p
    has1 = den > 0.0
    slk1 = np.where(
        has1,
        wcet_duration
        * np.divide(num, den, out=np.zeros_like(num), where=has1)
        * task_prob,
        np.inf,
    )
    certain = ~uncertain
    has2 = certain.any(axis=1)
    certain_min = np.where(certain, ratio, np.inf).min(axis=1)
    slk2 = np.where(
        has2, wcet_duration * np.where(has2, certain_min, 0.0) * task_prob, np.inf
    )
    grant = np.minimum(slk1, slk2)
    return np.where(np.isfinite(grant), grant, 0.0)

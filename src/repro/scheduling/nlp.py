"""NLP-based task stretching — the baseline DVFS stage of refs [10]/[17].

Given a mapped and ordered schedule, the expected-energy-optimal
continuous speed assignment is a convex non-linear program over the
per-task execution times ``t_τ``:

    minimise    Σ_τ  w_τ · E(τ, p_τ) · (WCET_τ / t_τ)^α
    subject to  Σ_{τ ∈ p} t_τ + comm(p) ≤ deadline        ∀ paths p
                WCET_τ ≤ t_τ ≤ WCET_τ / min_speed(p_τ)

with ``w_τ`` the activation probability (expected energy — ref [17])
or 1 (worst-case energy — the flavour Reference Algorithm 1 uses).
Solved with ``scipy.optimize.minimize`` (SLSQP).  This is the "high
complexity" stage the paper's heuristic replaces: its runtime grows
quickly with the path count, which the runtime-speedup bench
demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..check.tolerances import TIME_EPS
from ..ctg.minterms import BranchProbabilities, activation_probability
from ..ctg.paths import enumerate_paths
from .schedule import Schedule, SchedulingError


@dataclass
class NlpReport:
    """Diagnostics of one NLP stretching run."""

    iterations: int
    expected_energy_objective: float
    converged: bool


def nlp_stretch_schedule(
    schedule: Schedule,
    probabilities: Optional[BranchProbabilities] = None,
    deadline: Optional[float] = None,
    expected_energy: bool = True,
    max_iterations: int = 400,
) -> NlpReport:
    """Optimally stretch a mapped/ordered schedule (in place) via NLP.

    Parameters
    ----------
    schedule:
        Output of the DLS stage; speeds are written back into it.
    probabilities:
        Branch distributions (defaults to the graph's profiled ones).
    deadline:
        Overrides the graph's deadline when given.
    expected_energy:
        Weight task energies by activation probability (ref [17]);
        ``False`` optimises worst-case energy with all weights 1.
    max_iterations:
        SLSQP iteration cap.

    Raises
    ------
    SchedulingError
        If the nominal schedule already misses the deadline, or the
        solver fails to return a feasible point.
    """
    # local import: scipy.optimize is heavy to load and only the NLP
    # baseline needs it, not every importer of repro.scheduling
    from scipy import optimize

    ctg = schedule.ctg
    limit = ctg.deadline if deadline is None else deadline
    if limit <= 0:
        raise SchedulingError("NLP stretching needs a positive deadline")
    if probabilities is None:
        probabilities = ctg.default_probabilities

    tasks = schedule.placement_order()
    index = {task: i for i, task in enumerate(tasks)}
    wcet = np.array([schedule.placement(t).wcet for t in tasks])
    nominal = np.array([schedule.placement(t).nominal_energy for t in tasks])
    alpha = schedule.platform.dvfs.exponent

    if expected_energy:
        act = activation_probability(ctg.without_pseudo_edges(), probabilities)
        weights = np.array([act[t] for t in tasks])
    else:
        weights = np.ones(len(tasks))

    upper = np.array(
        [
            schedule.placement(t).wcet / schedule.platform.pe(schedule.pe_of(t)).min_speed
            for t in tasks
        ]
    )

    edge_delays = schedule.edge_delays()
    paths = enumerate_paths(ctg, include_pseudo=True)
    rows: List[np.ndarray] = []
    comm_offsets: List[float] = []
    seen = set()
    for path in paths:
        row = np.zeros(len(tasks))
        for node in path.nodes:
            row[index[node]] += 1.0
        comm = sum(
            edge_delays.get((a, b), 0.0) for a, b in zip(path.nodes, path.nodes[1:])
        )
        key = (row.tobytes(), round(comm, 12))
        if key in seen:
            continue
        seen.add(key)
        rows.append(row)
        comm_offsets.append(comm)
    matrix = np.vstack(rows)
    offsets = np.array(comm_offsets)

    nominal_delays = matrix @ wcet + offsets
    if np.any(nominal_delays > limit + TIME_EPS):
        raise SchedulingError(
            "nominal schedule infeasible: a path exceeds the deadline by "
            f"{float(np.max(nominal_delays - limit)):.3f}"
        )

    coeff = weights * nominal * np.power(wcet, alpha)

    def objective(t: np.ndarray) -> float:
        return float(np.sum(coeff / np.power(t, alpha)))

    def gradient(t: np.ndarray) -> np.ndarray:
        return -alpha * coeff / np.power(t, alpha + 1)

    constraints = [
        {
            "type": "ineq",
            "fun": lambda t, m=matrix, o=offsets: limit - (m @ t + o),
            "jac": lambda t, m=matrix: -m,
        }
    ]
    bounds = list(zip(wcet, np.maximum(upper, wcet)))
    result = optimize.minimize(
        objective,
        x0=wcet.copy(),
        jac=gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": max_iterations, "ftol": 1e-10},
    )
    times = np.clip(result.x, wcet, np.maximum(upper, wcet))
    # Project back into the feasible region if SLSQP overshot: shrink
    # any violated path uniformly (rarely needed, tiny violations).
    violations = matrix @ times + offsets - limit
    if np.any(violations > TIME_EPS):
        scale = np.min((limit - offsets) / (matrix @ times))
        if scale <= 0:
            raise SchedulingError("NLP solver returned an irrecoverable point")
        times = np.maximum(wcet, times * min(1.0, scale))

    for task, t in zip(tasks, times):
        schedule.set_speed(task, schedule.placement(task).wcet / float(t))
    return NlpReport(
        iterations=int(result.nit),
        expected_energy_objective=float(result.fun),
        converged=bool(result.success),
    )

"""Chaos experiment: fault-injected adaptive runs through the engine.

One cell = one ``(workload, fault plan, degradation policy)``
combination: a drifting trace is replayed through
:func:`repro.sim.run_faulted` under a seeded
:class:`~repro.faults.plan.FaultPlan`, and the cell reports the
miss-rate, recovery-rate and energy-cost-of-recovery summary of the
run's :class:`~repro.faults.log.FaultLog` plus the full serialised
log.  Cells are pure functions of their parameters — the plan's
random-access seeding makes the injected fault sequence identical at
any ``--jobs`` value — so a chaos artifact (written in canonical form,
see :func:`repro.experiments.artifacts.canonical_artifact_payload`) is
byte-stable across runs and process counts; CI's ``chaos-smoke`` job
holds the line on exactly that, and on the default policy recovering
at least 90% of deadline-threatening faults in the smoke matrix.

The built-in :func:`fault_plan_catalogue` severities are calibrated so
the default policy *can* recover (the point of the CI gate is to
detect the policy regressing, not to prove unrecoverable faults
unrecoverable): moderate overruns leave enough headroom under the
``CHAOS_DEADLINE_FACTOR`` deadline for max-speed escalation to buy the
instance back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..analysis import format_table
from ..faults import DegradationPolicy, FaultPlan, InjectorSpec
from ..faults.policy import POLICIES
from ..io import instance_fingerprint
from ..scheduling import set_deadline_from_makespan
from ..sim import empirical_distribution, run_faulted
from ..workloads import drifting_trace
from .spec import Cell, CellResult, ExperimentSpec

#: Deadline slack for chaos runs.  The stretching heuristic fills the
#: slack regardless of the factor (worst-case finish ≈ deadline), so
#: threat counts barely depend on it; 1.6 matches the energy
#: experiments and leaves escalation ample recovery headroom.
CHAOS_DEADLINE_FACTOR = 1.6

#: Trace length / training prefix of a full chaos run.
CHAOS_LENGTH = 400
CHAOS_TRAIN = 80

#: Workloads the chaos matrix covers by default.
CHAOS_WORKLOADS: Tuple[str, ...] = ("mpeg", "cruise")


def fault_plan_catalogue(seed: int = 1033) -> Dict[str, FaultPlan]:
    """The named, seeded fault plans of the chaos matrix.

    Severities are moderate by design (see the module docstring).
    Two plans sit outside the recovery gate: ``stress`` is
    deliberately harsher, probing degradation behaviour rather than a
    recovery target, and ``noisy-links`` misses are dominated by link
    latency, which max-speed escalation cannot buy back (DVFS recovers
    computation time, not communication time).
    """
    return {
        "overrun": FaultPlan(
            "overrun",
            seed,
            (InjectorSpec("task_overrun", 0.20, 1.6),),
        ),
        "overrun-drop": FaultPlan(
            "overrun-drop",
            seed + 1,
            (
                InjectorSpec("task_overrun", 0.20, 1.6),
                InjectorSpec("reschedule_drop", 0.30),
            ),
        ),
        "pe-degraded": FaultPlan(
            "pe-degraded",
            seed + 2,
            (
                InjectorSpec("pe_slowdown", 0.15, 1.3),
                InjectorSpec("pe_freeze", 0.05, 0.05),
            ),
        ),
        "noisy-links": FaultPlan(
            "noisy-links",
            seed + 3,
            (
                InjectorSpec("link_jitter", 0.25, 2.0),
                InjectorSpec("branch_corruption", 0.10),
                InjectorSpec("reschedule_delay", 0.15, 2.0),
            ),
        ),
        "stress": FaultPlan(
            "stress",
            seed + 4,
            (
                InjectorSpec("task_overrun", 0.35, 1.6),
                InjectorSpec("task_overrun", 0.10, 4.0, mode="additive"),
                InjectorSpec("pe_slowdown", 0.10, 1.3),
                InjectorSpec("reschedule_drop", 0.25),
                InjectorSpec("branch_corruption", 0.05),
            ),
        ),
        # Aimed at discrete frequency tables (``--policy discrete``):
        # moderate overruns that a 1.0-ceiling escalation recovers, so
        # any remaining miss under a capped table is a quantization
        # loss — which the gate excludes from its accounting.
        "discrete-dvfs": FaultPlan(
            "discrete-dvfs",
            seed + 5,
            (
                InjectorSpec("task_overrun", 0.25, 1.5),
                InjectorSpec("pe_slowdown", 0.10, 1.2),
            ),
        ),
    }


#: Plans the smoke matrix runs (CI gates a ≥90% recovery rate on these).
SMOKE_PLANS: Tuple[str, ...] = ("overrun", "overrun-drop", "pe-degraded")


@dataclass
class ChaosRow:
    """One (workload, plan, policy) run of the chaos matrix."""

    workload: str
    plan: str
    policy: str
    faults: int
    threatened: int
    recovered: int
    unrecovered: int
    recovery_rate: float
    deadline_misses: int
    reschedule_calls: int
    total_energy: float
    energy_cost_of_recovery: float
    quantization_losses: int = 0


@dataclass
class ChaosResult:
    """The reduced chaos matrix."""

    rows: List[ChaosRow] = field(default_factory=list)

    def gated_rows(self) -> List[ChaosRow]:
        """Rows the recovery gate applies to: default policy, and only
        plans whose faults escalation can in principle recover (see
        :func:`fault_plan_catalogue` on the excluded two)."""
        ungated = ("stress", "noisy-links")
        return [
            r for r in self.rows if r.policy == "default" and r.plan not in ungated
        ]

    def overall_recovery_rate(self) -> float:
        """Pooled recovery rate over the gated rows (1.0 when nothing
        recoverable was threatened).  Quantization losses — misses a
        sub-1.0 discrete frequency ceiling makes unavoidable — are
        excluded from the denominator, matching
        :meth:`repro.faults.log.FaultLog.recovery_rate`."""
        rows = self.gated_rows()
        denominator = sum(r.threatened - r.quantization_losses for r in rows)
        if denominator <= 0:
            return 1.0
        return sum(r.recovered for r in rows) / denominator

    def unrecovered_misses(self) -> int:
        """Deadline misses surviving the default policy (gated rows);
        quantization losses are tracked separately and not counted."""
        return sum(r.unrecovered for r in self.gated_rows())

    def total_quantization_losses(self) -> int:
        """Quantization losses over the gated rows."""
        return sum(r.quantization_losses for r in self.gated_rows())

    def format(self) -> str:
        """Render the matrix plus the recovery summary line."""
        table = format_table(
            [
                "Workload", "Plan", "Policy", "Faults", "Threat", "Recov",
                "Unrec", "Rate (%)", "Misses", "Calls", "E cost",
            ],
            [
                [
                    r.workload, r.plan, r.policy, r.faults, r.threatened,
                    r.recovered, r.unrecovered, round(100 * r.recovery_rate),
                    r.deadline_misses, r.reschedule_calls,
                    round(r.energy_cost_of_recovery, 1),
                ]
                for r in self.rows
            ],
            title="Chaos matrix — fault injection under degradation policies",
        )
        summary = (
            f"default-policy recovery rate: "
            f"{100 * self.overall_recovery_rate():.0f}%   "
            f"unrecovered misses: {self.unrecovered_misses()}"
        )
        qloss = self.total_quantization_losses()
        if qloss:
            summary += f"   quantization losses: {qloss}"
        return f"{table}\n{summary}"


def chaos_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One chaos run: build the workload, inject, degrade, summarise."""
    from .. import workloads
    from ..check import check_fault_plan
    from ..faults.plan import FaultPlanError

    ctg = getattr(workloads, f"{params['workload']}_ctg")()
    platform = getattr(workloads, f"{params['workload']}_platform")()
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    plan = FaultPlan.from_dict(params["plan"])
    report = check_fault_plan(plan, ctg=ctg, platform=platform)
    if not report.ok:
        raise FaultPlanError(
            f"fault plan {plan.name!r} failed validation: "
            + "; ".join(str(d) for d in report.errors)
        )
    policy = DegradationPolicy.from_dict(params["policy"])
    length = params["length"]
    trace = drifting_trace(ctg, length, seed=params["trace_seed"])
    train = params["train"]
    probabilities = empirical_distribution(ctg, trace[:train])
    # absent key = the continuous policy
    result = run_faulted(
        ctg,
        platform,
        trace[train:],
        probabilities,
        plan,
        policy=policy,
        speed_policy=params.get("speed_policy"),
    )
    log = result.fault_log
    values = {
        "fault_log": log.to_dict(),
        "summary": log.summary(),
        "deadline_misses": result.deadline_misses,
        "reschedule_calls": result.reschedule_calls,
        "call_instances": list(result.call_instances),
        "total_energy": result.total_energy,
    }
    payload: Dict[str, Any] = {"values": values}
    if result.profile is not None:
        payload["profile"] = result.profile.to_dict()
    return payload


def _reduce_chaos(cells: List[CellResult]) -> ChaosResult:
    result = ChaosResult()
    for cell in cells:
        summary = cell.values["summary"]
        result.rows.append(
            ChaosRow(
                workload=cell.params["workload"],
                plan=cell.params["plan"]["name"],
                policy=cell.params["policy_name"],
                faults=summary["faults"],
                threatened=summary["threatened"],
                recovered=summary["recovered"],
                unrecovered=summary["unrecovered"],
                recovery_rate=summary["recovery_rate"],
                deadline_misses=cell.values["deadline_misses"],
                reschedule_calls=cell.values["reschedule_calls"],
                total_energy=cell.values["total_energy"],
                energy_cost_of_recovery=summary["energy_cost_of_recovery"],
                quantization_losses=summary.get("quantization_losses", 0),
            )
        )
    return result


def chaos_spec(
    workloads: Tuple[str, ...] = CHAOS_WORKLOADS,
    plans: Optional[Tuple[str, ...]] = None,
    policies: Tuple[str, ...] = ("default", "none"),
    length: int = CHAOS_LENGTH,
    train: int = CHAOS_TRAIN,
    trace_seed: int = 71,
    plan_seed: int = 1033,
    deadline_factor: float = CHAOS_DEADLINE_FACTOR,
    speed_policy: str = "continuous",
) -> ExperimentSpec:
    """The chaos matrix as a declarative spec.

    One cell per ``workload × plan × policy``; ``plans`` names entries
    of :func:`fault_plan_catalogue` (default: the full catalogue) and
    ``policies`` names entries of :data:`repro.faults.policy.POLICIES`.
    ``speed_policy`` names a :data:`repro.scheduling.policies
    .SPEED_POLICIES` entry applied to every cell; ``"continuous"``
    (the default) leaves cell keys and parameters untouched so
    existing cache entries and artifacts stay byte-identical.
    """
    from ..scheduling.policies import SPEED_POLICIES

    catalogue = fault_plan_catalogue(plan_seed)
    plan_names = tuple(catalogue) if plans is None else tuple(plans)
    unknown = [p for p in plan_names if p not in catalogue]
    if unknown:
        raise ValueError(f"unknown fault plan(s): {', '.join(unknown)}")
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        raise ValueError(f"unknown degradation policy(ies): {', '.join(unknown)}")
    if speed_policy not in SPEED_POLICIES:
        known = ", ".join(sorted(SPEED_POLICIES))
        raise ValueError(f"unknown speed policy {speed_policy!r} (known: {known})")
    extra = {} if speed_policy == "continuous" else {"speed_policy": speed_policy}
    suffix = "" if speed_policy == "continuous" else f":{speed_policy}"
    cells = tuple(
        Cell(
            key=f"{workload}:{plan_name}:{policy_name}{suffix}",
            params={
                "workload": workload,
                "plan": catalogue[plan_name].to_dict(),
                "policy": POLICIES[policy_name].to_dict(),
                "policy_name": policy_name,
                "length": length,
                "train": train,
                "trace_seed": trace_seed,
                "deadline_factor": deadline_factor,
                **extra,
            },
        )
        for workload in workloads
        for plan_name in plan_names
        for policy_name in policies
    )
    context = {
        "instances": {
            workload: _workload_fingerprint(workload) for workload in workloads
        }
    }
    return ExperimentSpec(
        name="chaos",
        cells=cells,
        cell_function=chaos_cell,
        reducer=_reduce_chaos,
        context=context,
    )


def _workload_fingerprint(workload: str) -> str:
    from .. import workloads

    ctg = getattr(workloads, f"{workload}_ctg")()
    platform = getattr(workloads, f"{workload}_platform")()
    return instance_fingerprint(ctg, platform)


def run_chaos(
    workloads: Tuple[str, ...] = CHAOS_WORKLOADS,
    plans: Optional[Tuple[str, ...]] = None,
    policies: Tuple[str, ...] = ("default", "none"),
    length: int = CHAOS_LENGTH,
    jobs: int = 1,
    cache: Optional[object] = None,
    speed_policy: str = "continuous",
) -> ChaosResult:
    """Run the chaos matrix through the engine."""
    from .engine import run_spec

    spec = chaos_spec(
        workloads, plans, policies, length=length, speed_policy=speed_policy
    )
    return run_spec(spec, jobs=jobs, cache=cache).result

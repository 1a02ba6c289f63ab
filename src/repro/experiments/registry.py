"""The experiment registry: every name ``repro run`` accepts, mapped to
a spec factory that builds the experiment at paper size or, under
``smoke=True``, at a seconds-scale size for CI and sanity runs.

Callers execute a registered experiment with
``run_spec(EXPERIMENTS[name](smoke), ...)`` — the CLI with the
``--smoke`` flag, the paper-size benches with ``smoke=False`` — so a
table's configuration is declared once, here.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, FrozenSet

from .ablations import sweep_spec, weighting_spec
from .extensions import discrete_spec, overhead_spec, predictor_spec, robustness_spec
from .figure4 import figure4_spec
from .montecarlo import montecarlo_spec
from .mpeg_energy import mpeg_spec
from .runtime import runtime_spec
from .spec import ExperimentSpec
from .table1 import table1_spec
from .table3 import table3_spec
from .table45 import bias_spec

#: Cells kept per experiment under ``--smoke``.
SMOKE_CELLS = 2
#: Trace length used by trace-driven experiments under ``--smoke``.
SMOKE_LENGTH = 200


def _subset(spec: ExperimentSpec, count: int = SMOKE_CELLS) -> ExperimentSpec:
    """The same spec restricted to its first ``count`` cells."""
    return dataclasses.replace(spec, cells=spec.cells[:count])


def _subset_bias(spec: ExperimentSpec) -> ExperimentSpec:
    """One graph per CTG category (the bias summaries average both)."""
    return dataclasses.replace(spec, cells=(spec.cells[0], spec.cells[5]))


def _titled(spec: ExperimentSpec, title: str, note: str) -> ExperimentSpec:
    """Attach a render closure for results whose format() takes a title."""
    spec.render = lambda result: result.format(title, note)
    return spec


def _spec_table1(smoke: bool, policy: str = "continuous") -> ExperimentSpec:
    spec = table1_spec(speed_policy=policy)
    return _subset(spec) if smoke else spec


def _spec_figure4(smoke: bool) -> ExperimentSpec:
    return figure4_spec(length=SMOKE_LENGTH if smoke else 1000)


def _spec_figure5(smoke: bool) -> ExperimentSpec:
    if smoke:
        return mpeg_spec(movies=("Airwolf", "Bike"), length=SMOKE_LENGTH)
    return mpeg_spec()


def _spec_table3(smoke: bool) -> ExperimentSpec:
    spec = table3_spec(length=SMOKE_LENGTH if smoke else 1000)
    return _subset(spec) if smoke else spec


def _spec_table4(smoke: bool) -> ExperimentSpec:
    spec = bias_spec("lowest", trace_length=100 if smoke else 1000)
    if smoke:
        spec = _subset_bias(spec)
    return _titled(
        spec,
        "Table 4 — online profiled for lowest-energy minterm",
        "(paper: adaptive saves ~22-23% on average)",
    )


def _spec_table5(smoke: bool) -> ExperimentSpec:
    spec = bias_spec("highest", trace_length=100 if smoke else 1000)
    if smoke:
        spec = _subset_bias(spec)
    return _titled(
        spec,
        "Table 5 — online profiled for highest-energy minterm",
        "(paper: adaptive saves only ~3-5% on average)",
    )


def _spec_figure6(smoke: bool) -> ExperimentSpec:
    spec = bias_spec("ideal", thresholds=(0.5,), trace_length=100 if smoke else 1000)
    if smoke:
        spec = _subset_bias(spec)
    return _titled(
        spec,
        "Figure 6 — ideal profiling vs adaptive T=0.5",
        "(paper: adaptive ~10% better overall)",
    )


def _spec_runtime(smoke: bool) -> ExperimentSpec:
    spec = runtime_spec(repeats=1 if smoke else 3)
    return _subset(spec) if smoke else spec


def _spec_ablation_window(smoke: bool) -> ExperimentSpec:
    if smoke:
        return sweep_spec(windows=(20,), thresholds=(0.5, 0.1), length=SMOKE_LENGTH)
    return sweep_spec()


def _spec_ablation_weighting(smoke: bool) -> ExperimentSpec:
    spec = weighting_spec()
    return _subset(spec) if smoke else spec


def _spec_ext_predictors(smoke: bool) -> ExperimentSpec:
    if smoke:
        return predictor_spec(movies=("Airwolf",), length=SMOKE_LENGTH)
    return predictor_spec()


def _spec_ext_overhead(smoke: bool) -> ExperimentSpec:
    if smoke:
        return overhead_spec(thresholds=(0.5, 0.1), length=SMOKE_LENGTH)
    return overhead_spec()


def _spec_ext_discrete(smoke: bool) -> ExperimentSpec:
    spec = discrete_spec()
    return _subset(spec) if smoke else spec


def _spec_ext_robustness(smoke: bool) -> ExperimentSpec:
    if smoke:
        return robustness_spec(seeds=(20, 21), length=SMOKE_LENGTH)
    return robustness_spec()


def _spec_montecarlo(smoke: bool) -> ExperimentSpec:
    if smoke:
        return montecarlo_spec(workloads=("mpeg", "cruise"), n=256)
    return montecarlo_spec()


#: Experiment name → spec factory taking the smoke flag (and, for the
#: names in :data:`POLICY_EXPERIMENTS`, a speed-policy name after it).
EXPERIMENTS: Dict[str, Callable[..., ExperimentSpec]] = {
    "table1": _spec_table1,
    "figure4": _spec_figure4,
    "figure5": _spec_figure5,
    "table3": _spec_table3,
    "table4": _spec_table4,
    "table5": _spec_table5,
    "figure6": _spec_figure6,
    "runtime": _spec_runtime,
    "ablation-window": _spec_ablation_window,
    "ablation-weighting": _spec_ablation_weighting,
    "ext-predictors": _spec_ext_predictors,
    "ext-overhead": _spec_ext_overhead,
    "ext-discrete-dvfs": _spec_ext_discrete,
    "ext-robustness": _spec_ext_robustness,
    "montecarlo": _spec_montecarlo,
}

#: Experiments whose factory accepts a speed policy (``--policy``);
#: the rest refuse a non-continuous policy instead of silently
#: ignoring it.
POLICY_EXPERIMENTS: FrozenSet[str] = frozenset({"table1"})

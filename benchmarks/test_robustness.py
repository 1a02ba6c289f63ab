"""Bench: Monte-Carlo robustness of the adaptive savings.

The paper reports one run per workload; this sweeps 12 independent
channel seeds of the 802.11b workload and asserts the savings
*distribution* is positive — its 95% confidence interval must exclude
zero.  This is the statistical backing for the headline claim.
"""

from repro.experiments import EXPERIMENTS, run_spec


def test_seed_robustness(benchmark, archive):
    spec = EXPERIMENTS["ext-robustness"](False)
    result = benchmark.pedantic(
        run_spec, args=(spec,), kwargs={"jobs": 1}, rounds=1, iterations=1
    ).result
    archive("extension_robustness", result.format())

    summary = result.summary()
    benchmark.extra_info["mean_savings"] = round(summary.mean, 2)
    benchmark.extra_info["ci_low"] = round(summary.ci_low, 2)

    assert summary.count >= 10
    assert summary.mean > 3.0
    assert summary.ci_low > 0.0, "95% CI of adaptive savings includes zero"

"""Bench: the speed-policy layer must be cheap on the default path and when on.

Two promises keep the `SpeedPolicy` protocol honest
(docs/algorithms.md §6.6):

* **default** — a `schedule_online` loop with the default
  `speed_policy` runs the `continuous` policy; the benchmark pins that loop
  so any protocol cost creeping into the default path shows up in the
  bench-regression compare against
  ``benchmarks/baselines/bench_quick.json``;
* **enabled** — the non-continuous families add bounded work on top of
  continuous stretching: quantisation + refinement for `discrete`
  (the refinement pass re-times the makespan per candidate move),
  configuration enumeration for `eaps`.  Each family's median call
  time is asserted within :data:`MAX_POLICY_OVERHEAD` of the default
  loop's on the same schedules, and naming `"continuous"` explicitly
  must be result-identical to the default loop.  The calls run one per
  block, the blocks interleaved across the four loops, so machine drift
  during the bench lands on every family alike instead of on whichever
  loop happened to run last.

Setting ``REPRO_BENCH_QUICK=1`` shrinks the loop for CI runs; the
overhead assertions are unchanged.
"""

import os
import statistics
import time

from repro.scheduling import schedule_online, set_deadline_from_makespan
from repro.workloads.mpeg import mpeg_ctg, mpeg_platform

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
ROUNDS = 6 if QUICK else 20

#: per-family wall-clock bound relative to the default loop —
#: discrete refinement re-times the makespan once per candidate
#: down-move, so the budget is generous but still sub-quadratic
MAX_POLICY_OVERHEAD = 8.0


def _problem():
    ctg, platform = mpeg_ctg(), mpeg_platform()
    set_deadline_from_makespan(ctg, platform, 1.4)
    return ctg, platform


def _loop(speed_policy=None):
    """``ROUNDS`` MPEG ``schedule_online`` calls (default: continuous)."""
    ctg, platform = _problem()
    started = time.perf_counter()
    result = None
    for _ in range(ROUNDS):
        result = schedule_online(ctg, platform, speed_policy=speed_policy)
    return result, time.perf_counter() - started


#: the loops compared: label → ``speed_policy`` argument
LOOPS = {"default": None, "continuous": "continuous", "discrete": "discrete", "eaps": "eaps"}


def run_policy_bench():
    """``ROUNDS`` calls per loop, one call per block, blocks interleaved
    across the loops; each loop is summarised by its median call time."""
    problems = {label: _problem() for label in LOOPS}
    samples = {label: [] for label in LOOPS}
    results = {}
    for _ in range(ROUNDS):
        for label, speed_policy in LOOPS.items():
            ctg, platform = problems[label]
            started = time.perf_counter()
            results[label] = schedule_online(ctg, platform, speed_policy=speed_policy)
            samples[label].append(time.perf_counter() - started)
    medians = {label: statistics.median(times) for label, times in samples.items()}
    default_seconds = medians.pop("default")
    per_family = {label: (results[label], medians[label]) for label in medians}
    lines = [
        f"speed-policy overhead — {ROUNDS}x MPEG schedule_online per loop, "
        "median per call, calls interleaved",
        f"  default (continuous)   : {default_seconds * 1e3:8.1f} ms",
    ]
    for family, (_result, seconds) in per_family.items():
        lines.append(
            f"  {family:<22} : {seconds * 1e3:8.1f} ms "
            f"({seconds / default_seconds:5.2f}x)"
        )
    return results["default"], per_family, default_seconds, "\n".join(lines)


def test_policy_free_schedule_loop(benchmark, archive):
    """The default-policy loop — the number the baseline compare pins."""
    result, _seconds = benchmark.pedantic(_loop, rounds=1, iterations=1)
    assert result.schedule.meets_deadline()
    archive(
        "policy_free_schedule_loop",
        f"default-policy schedule_online loop — {ROUNDS} rounds",
    )


def test_policy_families_overhead(benchmark, archive):
    baseline, per_family, default_seconds, report = benchmark.pedantic(
        run_policy_bench, rounds=1, iterations=1
    )
    archive("policy_overhead", report)

    # naming the continuous policy selects exactly the default path:
    # identical speeds
    continuous, cont_seconds = per_family["continuous"]
    base_speeds = {
        t: p.speed for t, p in baseline.schedule.placements.items()
    }
    cont_speeds = {
        t: p.speed for t, p in continuous.schedule.placements.items()
    }
    assert cont_speeds == base_speeds

    for family, (result, seconds) in per_family.items():
        overhead = seconds / default_seconds
        benchmark.extra_info[f"{family}_overhead"] = round(overhead, 2)
        assert result.schedule.meets_deadline(), family
        assert overhead <= MAX_POLICY_OVERHEAD, (
            f"{family} policy costs {overhead:.2f}x the default loop, "
            f"bound is {MAX_POLICY_OVERHEAD}x"
        )

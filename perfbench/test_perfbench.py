"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Each test drives ``perfbench/run.py`` as a subprocess with a short
``--seconds`` (every workload still completes at least one round).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: BENCHMARK.json gates a subset; every workload run.py knows is tested
WORKLOADS = ["reschedule", "replay", "montecarlo", "sweep"]


def run_bench(workload, trace=0, seed=0, seconds="0.5", cwd=ROOT, extra=()):
    """Run perfbench/run.py once; ``--seconds 0.5`` still completes a whole
    pool cycle, so every output check runs."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"]


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(names)
    for name, unit in names.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_prints_every_end_to_end_metric(workload):
    result, meta = result_of(run_bench(workload, seed=3))
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["failed_frac"] == 0.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {"git_revision", "nproc", "python", "numpy", "seed", "samples",
            "calibration_ms"} <= set(meta)


def test_recorded_inputs_are_what_the_controller_schedules(monkeypatch):
    """``controller_inputs`` records the distributions ``run_adaptive``'s
    controller passes to ``schedule_online``, in the same order."""
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from repro.adaptive import controller as controller_mod
    from repro.scheduling import set_deadline_from_makespan
    from repro.sim import empirical_distribution, run_adaptive
    from repro.workloads import channel_trace, wlan_ctg, wlan_platform

    from perfbench.workloads import Reschedule, controller_inputs

    ctg, platform = wlan_ctg(), wlan_platform()
    set_deadline_from_makespan(ctg, platform, 1.5)
    trace = channel_trace(ctg, 600, seed=5)
    initial = empirical_distribution(ctg, trace[:200])
    scheduled = []
    real = controller_mod.schedule_online

    def recording(ctg, platform, probabilities, **kwargs):
        scheduled.append(probabilities)
        return real(ctg, platform, probabilities, **kwargs)

    monkeypatch.setattr(controller_mod, "schedule_online", recording)
    run_adaptive(ctg, platform, trace[200:], initial, Reschedule.CONFIG)
    monkeypatch.undo()
    want = scheduled[1:]  # the first call builds the initial schedule
    assert len(want) >= 5
    assert controller_inputs(ctg, platform, trace[200:], initial, Reschedule.CONFIG, len(want)) == want


def test_gated_workloads_are_known():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_traced_run_prints_every_per_layer_metric():
    result, _ = result_of(run_bench("montecarlo", trace=1))
    assert_metrics(result, BENCHMARK["per_layer"])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["batch.sweep.calls"]["value"] > 0
    assert metrics["ctg.analysis.calls"]["value"] > 0
    assert 0.0 <= metrics["unattributed_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", ["replay", "sweep"])
def test_golden_digest_passes_at_default_seed(workload):
    result, _ = result_of(run_bench(workload, seed=0))
    assert result["correct"] and result["failed"] == 0


def test_corrupted_golden_digest_counts_as_failure(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["replay"] = "0" * len(golden["replay"])
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))
    result, meta = result_of(run_bench("replay", seed=0, extra=("--golden", str(corrupted))))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert meta["failed_frac"] > 0.0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("reschedule", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

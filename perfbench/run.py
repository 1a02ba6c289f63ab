"""Benchmark driver: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload reschedule --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics on the unmodified
program.  ``--trace 1`` runs the same workload and seed with the layer
wrappers of ``perfbench/tracing.py`` installed and reports the
per-layer metrics instead.  The last line of standard output is the
result object; the line before it carries the run metadata.  Caches,
artifacts and sockets go to a temporary directory inside the checkout
that is removed before exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as platform_mod
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up repetitions of an untraced run; ``setup_s`` takes their median.
SETUP_REPEATS = 3


def process_age() -> float:
    """Seconds since this interpreter was started (0 if unknown)."""
    try:
        with open("/proc/self/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as uptime:
            up = float(uptime.read().split()[0])
        return max(0.0, up - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


AGE_AT_START = process_age()


def since_start() -> float:
    """Seconds from interpreter start to now."""
    return AGE_AT_START + time.perf_counter() - STARTED


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def calibration_ms() -> float:
    """Median time of a fixed single-threaded Python plus numpy job."""
    import numpy as np

    values = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        np.sort(values)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def pin_to_fastest_cpu() -> dict:
    """Pin this process to the allowed CPU that runs a short probe fastest.

    On a shared host the CPUs of one box can differ in speed by half; a
    process that migrates between them mixes both speeds into every
    figure.  Blocks that start worker processes lift the pin first
    (``workloads.all_cpus``), since workers inherit the affinity.
    """
    if not hasattr(os, "sched_setaffinity"):
        return {}
    allowed = sorted(os.sched_getaffinity(0))
    probe = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(3):
            start = time.perf_counter()
            total = 0
            for i in range(100_000):
                total += i * i
            times.append(time.perf_counter() - start)
        probe[cpu] = 1e3 * min(times)
    best = min(probe, key=probe.get)
    os.sched_setaffinity(0, {best})
    return {"cpu": best, "probe_ms": {str(c): round(t, 3) for c, t in probe.items()}}


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--golden",
        type=Path,
        default=Path(__file__).resolve().parent / "golden.json",
        help="golden digests applied at the default seed",
    )
    return parser.parse_args(argv)


def run_loop(workload, state, h, seconds: float, first_round: int = 0, rounds=None) -> int:
    """Run rounds until the timed operations add up to ``seconds`` and
    the workload's input pool has been visited a whole number of times
    (or for ``rounds`` rounds); return the number of rounds run."""
    r = first_round
    busy = h.busy()
    while True:
        if (r - first_round) % workload.cycle == 0:
            # follow the faster CPU: on a shared host which one it is changes
            h.cpus.append(pin_to_fastest_cpu().get("cpu"))
        workload.round(state, h, r)
        r += 1
        if rounds is not None:
            if r - first_round >= rounds:
                break
        elif h.busy() - busy >= seconds and (r - first_round) % workload.cycle == 0:
            break
    return r - first_round


def stream_metrics(h, stream: str) -> dict:
    return {
        f"{stream}_ms_iqm": (h.iqm_ms(stream), "ms"),
        f"{stream}_per_s": (h.rate(stream), "1/s"),
    }


def tail_ms(samples) -> dict:
    """The highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 50):
        if len(samples) * (100 - q) / 100 >= 10:
            return {"q": q, "ms": 1e3 * statistics.quantiles(samples, n=100)[q - 1], "n": len(samples)}
    return {"q": None, "ms": None, "n": len(samples)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    from perfbench import tracing
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Harness, all_cpus

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import numpy

    workload = WORKLOADS[args.workload]
    import_s = since_start()
    h = Harness()
    meta = {
        "pinned": pin_to_fastest_cpu(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform_mod.python_version(),
        "numpy": numpy.__version__,
        "calibration_ms": round(calibration_ms(), 3),
        "units": {"main": workload.units[0], "bypass": workload.units[1]},
    }

    if args.trace:
        metrics, state, meta["traced_share"] = traced_run(
            args, workload, h, workdir, tracing, all_cpus
        )
    else:
        setups, state = [], None
        for _ in range(SETUP_REPEATS):
            # drop the previous set-up first, so peak memory holds one
            state = None
            gc.collect()
            start = time.perf_counter()
            state = workload.build(args.seed, workdir)
            workload.warm(state)
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        meta["rounds"] = run_loop(workload, state, h, args.seconds)
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
        metrics.update(stream_metrics(h, "main"))
        metrics.update(stream_metrics(h, "bypass"))

    check = workload.check(state, h)
    golden = json.loads(args.golden.read_text()) if args.golden.is_file() else {}
    if args.seed == DEFAULT_SEED and "digest" in check:
        want = golden.get(workload.name)
        if want != check["digest"]:
            h.fail(f"{workload.name}: digest {check['digest']} does not match golden {want}")
    meta["check"] = check
    meta["samples"] = {stream: len(s) for stream, s in h.samples.items()}
    meta["units_done"] = dict(h.units)
    meta["cpus_by_cycle"] = h.cpus
    meta["p50_ms"] = {s: 1e3 * statistics.median(v) for s, v in h.samples.items() if v}
    meta["tail_ms"] = {stream: tail_ms(s) for stream, s in h.samples.items()}
    failed = min(len(h.failures), h.attempted)
    meta["failed_frac"] = failed / h.attempted if h.attempted else 1.0
    for failure in h.failures:
        print(failure, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:<11} {name:<32} {value:>16.6f} {unit}")
    print(f"{workload.name:<11} {'failed_frac':<32} {meta['failed_frac']:>16.6f} ratio "
          f"(of {h.attempted} operations)")
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": not h.failures and h.attempted > 0,
        "attempted": max(1, h.attempted),
        "failed": failed if h.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, workload, h, workdir, tracing, all_cpus):
    """Per-layer metrics: set-up and a window of rounds traced, compared
    with an untraced window of as many rounds just before it.  Also the
    self time of each span name in the traced rounds as a share of their
    operation time."""
    cli_import_s = tracing.cli_import_seconds()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        state = workload.build(args.seed, workdir)
        workload.warm(state)
    finally:
        tracer.uninstall()
    tracer.recording = False
    busy = h.busy()
    rounds = run_loop(workload, state, h, args.seconds / 2)
    untraced_busy = h.busy() - busy
    h.tracer = tracer
    tracing.install(tracer)
    try:
        since, busy = time.perf_counter(), h.busy()
        run_loop(workload, state, h, 0.0, first_round=rounds, rounds=rounds)
        traced_busy = h.busy() - busy
    finally:
        tracer.uninstall()
        h.tracer = None
    fleet = {}
    if workload.name == "sweep":
        with all_cpus():
            fleet = tracing.fleet_probe()
    summary = tracer.summary(since, traced_busy)
    metrics = tracing.layer_metrics(summary, tracer, fleet)
    metrics["cli.import_s"] = (cli_import_s, "s")
    metrics["trace_overhead_ratio"] = (traced_busy / untraced_busy, "ratio")
    shares = {name: round(entry["share"], 4) for name, entry in summary["layers"].items()}
    return metrics, state, shares


if __name__ == "__main__":
    sys.exit(main())

"""Span recording for the traced benchmark run.

The traced run wraps the public functions of each layer at every name
its callers bind (``repro.sim.vectors.resolve_activation`` as well as
``repro.ctg.minterms.resolve_activation``, every module that imported
``dls_schedule``, ...) and records one span per call: name, start, end,
parent and whether it raised.  Spans live in memory and are reduced to
per-layer metrics when the run ends.  Nothing here is installed during
an untraced run, so end-to-end metrics are measured on the unmodified
program.

Only calls on the thread that installed the tracer, and only while
``recording`` is set, are recorded: the engine's dispatch threads and
the benchmark's own output checks run through unrecorded.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# span record fields
NAME, START, END, PARENT, FAILED = range(5)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: free-form accumulators filled by span hooks
        self.extra: Dict[str, float] = {}
        #: cleared between operations so output checks leave no spans
        self.recording = True

    # -- recording ------------------------------------------------------
    def wrap(
        self,
        name: Callable[..., str] | str,
        fn: Callable,
        on_return: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``name`` is a span name or a function of the call's arguments
        returning one; ``on_return(args, kwargs, result, seconds)`` runs
        after a successful call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, False]
            index = len(tracer.spans)
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                record[END] = time.perf_counter()
                tracer._stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result, record[END] - record[START])
            return result

        return traced

    def patch_function(self, original: Callable, name, on_return=None) -> None:
        """Replace ``original`` at every module name bound to it in the
        package and in the benchmark."""
        traced = self.wrap(name, original, on_return)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced)

    def patch_method(self, owner: type, attr: str, name, on_return=None) -> None:
        """Replace a method (plain or classmethod) on its class."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, on_return))
        else:
            traced = self.wrap(name, raw, on_return)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched name (in reverse order)."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reduction ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the time its children cover.

        Children of a span run on the same thread and nest inside it, so
        they are disjoint and their durations add up to the covered part.
        """
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def summary(self, since: float, busy: float) -> Dict[str, Any]:
        """Calls, self time and failures per span name, the self time
        spent after ``since`` as a share of the ``busy`` operation time
        after it, and the share of that time no top-level layer span
        covers."""
        own = self.self_times()
        layers: Dict[str, Dict[str, Any]] = {}
        for span, self_s in zip(self.spans, own):
            entry = layers.setdefault(
                span[NAME],
                {"calls": 0, "self_s": 0.0, "failed": 0, "samples": [], "share": 0.0},
            )
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["failed"] += int(span[FAILED])
            entry["samples"].append(span[END] - span[START])
            if span[START] >= since and busy > 0:
                entry["share"] += self_s / busy
        covered = sum(
            span[END] - span[START]
            for span in self.spans
            if span[PARENT] < 0 and span[START] >= since
        )
        return {
            "layers": layers,
            "unattributed_frac": max(0.0, 1.0 - covered / busy) if busy > 0 else 0.0,
        }


def median_ms(samples: List[float]) -> float:
    """Median of a list of durations in milliseconds (0 when empty)."""
    return 1e3 * statistics.median(samples) if samples else 0.0


def echo_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Trivial cell function for the fleet frame round-trip probe."""
    return {"values": {"echo": params.get("i", 0)}}


def _cache_kind(cell_cache: Any) -> str:
    return "sqlite" if type(cell_cache.backend).__name__ == "SqliteBackend" else "dir"


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    from repro.adaptive.controller import AdaptiveController
    from repro.batch import montecarlo as batch_montecarlo
    from repro.batch.soa import BatchSchedule
    from repro.ctg import minterms
    from repro.ctg.paths import enumerate_paths
    from repro.experiments import engine
    from repro.experiments.cache import CellCache
    from repro.scheduling import dls, online, pathcache, stretching
    from repro.sim.executor import InstanceExecutor

    def add(key: str, amount: float) -> None:
        tracer.extra[key] = tracer.extra.get(key, 0.0) + amount

    def computed_bytes(args, kwargs, result, seconds):
        batch = kwargs.get("batch")
        if batch is not None:
            add("batch.computed_bytes", result.n * batch.n_scenarios)  # (N,S) match masks
        if result.wcet_factors is not None:
            add("batch.computed_bytes", result.wcet_factors.nbytes)  # (N,T) work ratios

    def engine_overhead(args, kwargs, report, seconds):
        fresh = [cell.seconds for cell in report.cells if not cell.cached]
        workers = max(1, min(report.stats.jobs, len(fresh)))
        add("engine.overhead_s", max(0.0, seconds - sum(fresh) / workers))

    def cache_hit(args, kwargs, entry, seconds):
        add("cache.hits", entry is not None)

    def lookup_name(args, kwargs):
        cache = kwargs["cache"] if "cache" in kwargs else (args[2] if len(args) > 2 else None)
        return "pathcache" if cache is not None else "pathcache.uncached"

    tracer.patch_method(minterms.CtgAnalysis, "of", "ctg.analysis")
    tracer.patch_function(minterms.resolve_activation, "ctg.resolve_activation")
    tracer.patch_function(enumerate_paths, "ctg.enumerate_paths")
    tracer.patch_function(dls.dls_schedule, "dls")
    tracer.patch_function(stretching.stretch_schedule, "stretch")
    tracer.patch_function(pathcache.structure_for, lookup_name)
    tracer.patch_function(pathcache.build_structure, "pathcache.build")
    tracer.patch_function(online.schedule_online, "online")
    tracer.patch_method(AdaptiveController, "observe", "controller.observe")
    tracer.patch_method(AdaptiveController, "reschedule", "controller.reschedule")
    tracer.patch_method(InstanceExecutor, "run", "executor.run")
    tracer.patch_method(BatchSchedule, "from_ctg", "batch.from_ctg")
    tracer.patch_function(batch_montecarlo.monte_carlo, "batch.sweep", computed_bytes)
    tracer.patch_method(
        CellCache, "get", lambda a, k: f"cache.{_cache_kind(a[0])}.get", cache_hit
    )
    tracer.patch_method(CellCache, "put", lambda a, k: f"cache.{_cache_kind(a[0])}.put")
    tracer.patch_function(engine.run_spec, "engine.run_spec", engine_overhead)


def cli_import_seconds(repeats: int = 3) -> float:
    """Median wall time of ``import repro.__main__`` in a fresh
    interpreter, less that of an interpreter that imports nothing."""

    def median_run(code: str) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    return max(0.0, median_run("import repro.__main__") - median_run("pass"))


def fleet_probe(round_trips: int = 20) -> Dict[str, float]:
    """Spawn a two-worker fleet with a trivial cell function.

    ``spawn_s`` runs from pool construction until every worker has
    answered its first frame (each pays the interpreter start and the
    package import); ``frame_rtt_ms`` is the median round trip of a
    frame to an idle worker, less the cell's own compute time.
    """
    from repro.experiments.workers import SubprocessFleetPool

    start = time.perf_counter()
    pool = SubprocessFleetPool(echo_cell, 2)
    try:
        pool.submit(0, {"i": 0})
        pool.submit(1, {"i": 1})
        pool.ready()
        pool.ready()
        spawn_s = time.perf_counter() - start
        trips = []
        for i in range(round_trips):
            sent = time.perf_counter()
            pool.submit(i, {"i": i})
            _, payload = pool.ready()
            trips.append(time.perf_counter() - sent - payload["seconds"])
    finally:
        pool.close()
    return {"spawn_s": spawn_s, "frame_rtt_ms": median_ms(trips)}


#: Span names reported as ``<name>.calls`` and ``<name>.self_s``.
CALL_LAYERS = (
    "ctg.analysis",
    "ctg.resolve_activation",
    "ctg.enumerate_paths",
    "dls",
    "stretch",
    "online",
    "controller.observe",
    "executor.run",
    "batch.sweep",
    "engine.run_spec",
)


def layer_metrics(summary: Dict[str, Any], tracer: Tracer, fleet: Dict[str, float]):
    """Reduce a trace summary to the named per-layer metrics."""
    layers = summary["layers"]
    empty = {"calls": 0, "self_s": 0.0, "failed": 0, "samples": []}
    layer = lambda name: layers.get(name, empty)
    metrics: Dict[str, Tuple[float, str]] = {}
    for span in CALL_LAYERS:
        metrics[f"{span}.calls"] = (layer(span)["calls"], "count")
        metrics[f"{span}.self_s"] = (layer(span)["self_s"], "s")
    for span in ("dls", "stretch"):
        metrics[f"{span}.failed"] = (layer(span)["failed"], "count")

    lookups = layer("pathcache")["calls"]
    misses = sum(
        1
        for span in tracer.spans
        if span[NAME] == "pathcache.build"
        and span[PARENT] >= 0
        and tracer.spans[span[PARENT]][NAME] == "pathcache"
    )
    metrics["pathcache.lookups"] = (lookups, "count")
    metrics["pathcache.hit_ratio"] = ((lookups - misses) / lookups if lookups else 0.0, "ratio")

    metrics["controller.reschedules"] = (layer("controller.reschedule")["calls"], "count")
    metrics["batch.from_ctg.self_s"] = (layer("batch.from_ctg")["self_s"], "s")
    metrics["batch.computed_mb"] = (tracer.extra.get("batch.computed_bytes", 0.0) / 1e6, "MB")

    gets = sum(layer(f"cache.{kind}.get")["calls"] for kind in ("dir", "sqlite"))
    for kind in ("dir", "sqlite"):
        for op in ("get", "put"):
            metrics[f"cache.{kind}.{op}_ms_p50"] = (
                median_ms(layer(f"cache.{kind}.{op}")["samples"]),
                "ms",
            )
    metrics["cache.lookups"] = (gets, "count")
    metrics["cache.hit_ratio"] = (tracer.extra.get("cache.hits", 0.0) / gets if gets else 0.0, "ratio")
    metrics["engine.overhead_s"] = (tracer.extra.get("engine.overhead_s", 0.0), "s")

    metrics["workers.fleet.spawn_s"] = (fleet.get("spawn_s", 0.0), "s")
    metrics["workers.fleet.frame_rtt_ms"] = (fleet.get("frame_rtt_ms", 0.0), "ms")
    metrics["unattributed_frac"] = (summary["unattributed_frac"], "ratio")
    return metrics

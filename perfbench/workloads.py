"""The four benchmark workloads.

Every workload is a closed loop with one client: the next operation
starts when the previous one returns.  Each has two streams of
operations — ``main``, which exercises the mechanism the workload is
about, and ``bypass``, which takes the path around it — and every
operation is timed on its own.  Outputs are kept (or digested) and
checked after the timed loop, never inside it.

All inputs come from the benchmark seed: graphs, probability vectors,
traces and spec seeds.  The program under test only ever sees the
generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro import batch as batch_mod
from repro import experiments as experiments_mod
from repro import scheduling as scheduling_mod
from repro import sim as sim_mod
from repro.adaptive.controller import AdaptiveConfig, AdaptiveController
from repro.batch import BatchSchedule
from repro.check import verify_schedule
from repro.ctg import CtgAnalysis
from repro.ctg.generator import (
    GeneratorConfig,
    generate_ctg,
    paper_table1_configs,
    paper_table4_configs,
)
from repro.experiments.backends import DirBackend, SqliteBackend
from repro.experiments.cache import CellCache
from repro.experiments.montecarlo import MONTECARLO_DEADLINE_FACTOR
from repro.experiments.mpeg_energy import MPEG_DEADLINE_FACTOR, MPEG_WINDOW
from repro.experiments.table3 import CRUISE_DEADLINE_FACTOR, CRUISE_SEQUENCES
from repro.experiments.table45 import TABLE45_DEADLINE_FACTOR, TABLE45_PE_COUNTS
from repro.faults.injectors import InstanceFaults
from repro.platform import ExecutionTimeDistribution
from repro.platform.generator import PlatformConfig, generate_platform
from repro.profiling import StageProfiler
from repro.scheduling import set_deadline_from_makespan
from repro.sim import InstanceExecutor, empirical_distribution
from repro.workloads import (
    DriftingBranchModel,
    channel_trace,
    cruise_ctg,
    cruise_platform,
    fluctuating_trace,
    movie_trace,
    mpeg_ctg,
    mpeg_platform,
    road_trace,
    wlan_ctg,
    wlan_platform,
)

#: The seed at which golden digests apply; other seeds get invariants only.
DEFAULT_SEED = 0

#: Seed of the input pools that the benchmark seed orders.  Where single
#: inputs differ widely in cost (mpeg's drifted distributions, trace
#: windows with more or fewer re-schedules) the benchmark seed picks the
#: order in which a fixed pool is visited rather than a new pool, so
#: every seed asks for the same mix of work.
POOL_SEED = 0

#: Deadline factor of the 802.11b receiver (as in examples/wlan_phy.py).
WLAN_DEADLINE_FACTOR = 1.5


def derive(seed: int, *salt: Any) -> int:
    """A 32-bit seed derived from the benchmark seed and a salt."""
    text = ":".join(str(part) for part in (seed,) + salt)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def digest(value: Any) -> str:
    """Short stable hash of a JSON-serialisable value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sig(x: float) -> str:
    """A float at ten significant digits, for machine-portable digests."""
    return f"{x:.10g}"


def schedule_digest(schedule) -> str:
    """Exact fingerprint of a schedule's mapping, order and speeds."""
    return digest(
        [
            [task, p.pe, p.order_index, repr(p.speed)]
            for task, p in sorted(schedule.placements.items())
        ]
    )


class Harness:
    """Times operations one at a time and counts what failed."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {"main": [], "bypass": []}
        self.units: Dict[str, int] = {"main": 0, "bypass": 0}
        self.attempted = 0
        self.failures: List[str] = []
        #: a tracer to record spans only while an operation runs
        self.tracer = None
        #: the CPU each cycle of rounds was pinned to
        self.cpus: List[Any] = []

    def timed(self, stream: str, units: int, fn: Callable[[], Any], label: str) -> Any:
        """Run one operation; return its output, or ``None`` if it raised."""
        out, elapsed = self.attempt(fn, label)
        if elapsed is not None:
            self.record(stream, elapsed, units)
        return out

    def attempt(self, fn: Callable[[], Any], label: str) -> Tuple[Any, Any]:
        """Run and time ``fn``; ``(output, seconds)``, or ``(None, None)``
        with the failure counted if it raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.recording = True
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:  # the loop must keep running; the failure is counted
            self.failures.append(f"{label} raised:\n{traceback.format_exc()}")
            return None, None
        finally:
            if self.tracer is not None:
                self.tracer.recording = False
        return out, time.perf_counter() - start

    def record(self, stream: str, seconds: float, units: int) -> None:
        """Account one completed operation of ``stream``."""
        self.samples[stream].append(seconds)
        self.units[stream] += units

    def fail(self, message: str) -> None:
        """Record an output check that did not hold."""
        self.failures.append(message)

    def rate(self, stream: str) -> float:
        """Units of ``stream`` completed per second of its operation time."""
        busy = sum(self.samples[stream])
        return self.units[stream] / busy if busy > 0 else 0.0

    def iqm_ms(self, stream: str) -> float:
        """Interquartile mean of the operation latencies, in ms."""
        ordered = sorted(self.samples[stream])
        n = len(ordered)
        middle = ordered[n // 4 : n - n // 4] or ordered
        return 1e3 * sum(middle) / len(middle)

    def busy(self) -> float:
        """Seconds spent inside timed operations so far."""
        return sum(sum(samples) for samples in self.samples.values())


def _drifted(ctg, rng: random.Random, steps: int = 200) -> Dict[str, Dict[str, float]]:
    """One branch distribution ``steps`` into a ``DriftingBranchModel.walk``."""
    out = {}
    for branch in ctg.branch_nodes():
        labels = ctg.outcomes_of(branch)
        mean = ctg.default_probabilities[branch][labels[0]]
        model = DriftingBranchModel(labels=labels, mean=min(0.75, max(0.25, mean)))
        out[branch] = model.walk(rng, steps)[-1]
    return out


def seeded_order(seed: int, salt: str, count: int) -> List[int]:
    """A permutation of ``range(count)`` drawn from the benchmark seed."""
    order = list(range(count))
    random.Random(derive(seed, salt)).shuffle(order)
    return order


def controller_inputs(ctg, platform, trace, initial, config: AdaptiveConfig, count: int):
    """The first ``count`` distributions an ``AdaptiveController`` hands
    to ``schedule_online`` while it replays ``trace``.

    The controller's own drift test decides when it re-schedules
    (``record`` + ``wants_reschedule``, the first steps of ``observe``);
    at that point ``reschedule`` schedules with the windowed estimate,
    which is recorded and installed here instead of being scheduled, so
    a sequence costs one scheduling call (the controller's first).
    """
    controller = AdaptiveController(ctg, platform, initial, config)
    out = []
    for vector in trace:
        controller.record(sim_mod.executed_decisions(ctg, vector))
        if controller.wants_reschedule():
            controller.in_use = controller.profiler.distributions()
            out.append(controller.in_use)
            if len(out) == count:
                return out
    raise ValueError(f"trace of {len(trace)} instances gave only {len(out)} re-schedules")


def _paper_graphs(factors: Dict[str, float]) -> List[Tuple[str, Any, Any]]:
    """mpeg, cruise and wlan with their platforms and deadlines."""
    builders = {
        "mpeg": (mpeg_ctg, mpeg_platform),
        "cruise": (cruise_ctg, cruise_platform),
        "wlan": (wlan_ctg, wlan_platform),
    }
    out = []
    for name, factor in factors.items():
        make_ctg, make_platform = builders[name]
        ctg, platform = make_ctg(), make_platform()
        set_deadline_from_makespan(ctg, platform, factor)
        out.append((name, ctg, platform))
    return out


# ----------------------------------------------------------------------
# reschedule
# ----------------------------------------------------------------------
class Reschedule:
    """Repeated ``schedule_online`` calls, as the adaptive controller makes.

    ``main``: the distributions an ``AdaptiveController`` (window 20,
    T=0.1) passes to ``schedule_online`` while it replays mpeg
    ``movie_trace``, cruise ``road_trace``, wlan ``channel_trace`` and
    the ``fluctuating_trace`` of each of the ten Table-4 graphs, replayed
    in their recorded order with one reused ``CtgAnalysis`` per graph.
    Each cycle through the recorded sequences starts from fresh analyses
    warmed by one call, as a newly built controller is, so the path
    cache sees what it would see in the controller.  The seed picks where
    in its sequence each graph starts.  ``bypass``: a fresh copy of a
    generated Table-1/Table-4 shaped graph per call, with
    ``CtgAnalysis.of`` inside the timed call.
    """

    name = "reschedule"
    units = ("call", "call")
    #: recorded re-scheduling inputs per graph, replayed cycle after cycle
    DISTRIBUTIONS = 32
    #: runs end on a whole number of cycles through the recordings
    cycle = DISTRIBUTIONS
    #: the controller of the recordings (window and threshold of the paper)
    CONFIG = AdaptiveConfig(window_size=MPEG_WINDOW, threshold=0.1)
    #: instances profiled for the controller's initial distribution
    PROFILE = 200
    #: trace length the recordings are taken from (each stops early)
    TRACE = 2000
    MOVIE = "Airwolf"
    #: pre-generated graphs of the bypass stream, cycled
    FRESH_GRAPHS = 32
    #: bypass calls per round (a round also makes one call per reused graph)
    FRESH_PER_ROUND = 3

    def build(self, seed: int, workdir: Path) -> Dict[str, Any]:
        graphs = [
            (name, ctg, platform, self._trace(name, ctg, POOL_SEED))
            for name, ctg, platform in _paper_graphs(
                {
                    "mpeg": MPEG_DEADLINE_FACTOR,
                    "cruise": CRUISE_DEADLINE_FACTOR,
                    "wlan": WLAN_DEADLINE_FACTOR,
                }
            )
        ]
        for index, (config, pes) in enumerate(
            zip(paper_table4_configs(), TABLE45_PE_COUNTS), start=1
        ):
            ctg = generate_ctg(config)
            platform = generate_platform(
                ctg.tasks(), PlatformConfig(pes=pes, seed=config.seed)
            )
            set_deadline_from_makespan(ctg, platform, TABLE45_DEADLINE_FACTOR)
            trace = fluctuating_trace(ctg, self.TRACE, seed=config.seed)
            graphs.append((f"ctg{index}", ctg, platform, trace))
        reused = []
        for name, ctg, platform, trace in graphs:
            initial = empirical_distribution(ctg, trace[: self.PROFILE])
            reused.append(
                {
                    "name": name,
                    "ctg": ctg,
                    "platform": platform,
                    "initial": initial,
                    "dists": controller_inputs(
                        ctg, platform, trace[self.PROFILE :], initial, self.CONFIG,
                        self.DISTRIBUTIONS,
                    ),
                    "offset": derive(seed, name) % self.DISTRIBUTIONS,
                    "stats": StageProfiler(),
                }
            )
        shapes = paper_table1_configs() + paper_table4_configs()
        fresh = []
        for i in range(self.FRESH_GRAPHS):
            shape = shapes[i % len(shapes)]
            config = GeneratorConfig(
                nodes=shape.nodes,
                branch_nodes=shape.branch_nodes,
                category=shape.category,
                seed=derive(POOL_SEED, "fresh", i),
            )
            ctg = generate_ctg(config)
            platform = generate_platform(
                ctg.tasks(), PlatformConfig(pes=3 + i % 2, seed=config.seed)
            )
            set_deadline_from_makespan(ctg, platform, TABLE45_DEADLINE_FACTOR)
            fresh.append((ctg, platform))
        fresh_order = seeded_order(seed, "fresh", self.FRESH_GRAPHS)
        state = {"reused": reused, "fresh": fresh, "fresh_order": fresh_order, "seen": {}}
        self._restart(state)
        return state

    def _trace(self, name: str, ctg, seed: int):
        if name == "mpeg":
            return movie_trace(ctg, self.MOVIE, self.TRACE)
        if name == "cruise":
            return road_trace(ctg, self.TRACE, seed=derive(seed, name))
        return channel_trace(ctg, self.TRACE, seed=derive(seed, name))

    @staticmethod
    def _restart(state: Dict[str, Any]) -> None:
        """Fresh analyses, each warmed by a call on the distribution in
        use before the graph's first input, as a new controller is."""
        for g in state["reused"]:
            g["analysis"] = CtgAnalysis.of(g["ctg"])
            k = g["offset"]
            before = g["dists"][k - 1] if k else g["initial"]
            scheduling_mod.schedule_online(
                g["ctg"], g["platform"], before, analysis=g["analysis"]
            )

    def warm(self, state: Dict[str, Any]) -> None:
        ctg, platform = state["fresh"][0]
        scheduling_mod.schedule_online(ctg.copy(), platform)

    @staticmethod
    def _cold_call(ctg, platform):
        analysis = CtgAnalysis.of(ctg)
        result = scheduling_mod.schedule_online(ctg, platform, analysis=analysis)
        return result, analysis

    @staticmethod
    def _record(state, h: Harness, key, schedule, analysis) -> None:
        """Verify a schedule the first time its inputs come up; later
        occurrences must reproduce it exactly.  Runs between operations,
        outside their timing."""
        fingerprint = schedule_digest(schedule)
        if key not in state["seen"]:
            state["seen"][key] = fingerprint
            report = verify_schedule(schedule, analysis)
            if not report.ok:
                h.fail(f"verify_schedule failed for {key}:\n{report.render_text()}")
        elif state["seen"][key] != fingerprint:
            h.fail(f"reschedule {key}: same inputs gave a different schedule")

    def round(self, state: Dict[str, Any], h: Harness, r: int) -> None:
        step = r % self.DISTRIBUTIONS
        if r and not step:
            self._restart(state)
        for g in state["reused"]:
            k = (g["offset"] + step) % self.DISTRIBUTIONS
            out = h.timed(
                "main",
                1,
                lambda g=g, k=k: scheduling_mod.schedule_online(
                    g["ctg"], g["platform"], g["dists"][k], analysis=g["analysis"],
                    profiler=g["stats"],
                ),
                f"schedule_online({g['name']}, input {k})",
            )
            if out is not None:
                self._record(state, h, (g["name"], k), out.schedule, g["analysis"])
        for j in range(self.FRESH_PER_ROUND):
            i = state["fresh_order"][(r * self.FRESH_PER_ROUND + j) % self.FRESH_GRAPHS]
            ctg, platform = state["fresh"][i]
            ctg = ctg.copy()
            out = h.timed(
                "bypass", 1, lambda: self._cold_call(ctg, platform), f"cold schedule {i}"
            )
            if out is not None:
                self._record(state, h, ("fresh", i), out[0].schedule, out[1])

    def check(self, state: Dict[str, Any], h: Harness) -> Dict[str, Any]:
        hits = {}
        for g in state["reused"]:
            counters = g["stats"].counters
            hit, miss = counters.get("path_cache.hit", 0), counters.get("path_cache.miss", 0)
            hits[g["name"]] = {"hit_ratio": hit / (hit + miss) if hit + miss else 0.0,
                               "lookups": hit + miss}
        return {"distinct_schedules": len(state["seen"]), "pathcache_by_graph": hits}


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
#: Execution-time classes of the dynamic-path leg (ratios of WCET).
ET_CLASSES = (
    ExecutionTimeDistribution(ratios=(0.4, 0.7, 1.0), weights=(5, 3, 2)),
    ExecutionTimeDistribution(ratios=(0.6, 0.85, 1.0), weights=(3, 4, 3)),
    ExecutionTimeDistribution(ratios=(0.85, 1.0), weights=(3, 7)),
)


class Replay:
    """The §IV trace harness: non-adaptive and adaptive (T=0.5) replay.

    ``main``: the executor's static path on mpeg ``movie_trace``,
    cruise ``road_trace`` and wlan ``channel_trace``.  ``bypass``: the
    same replays on platforms carrying per-task execution-time
    distributions, with ``et_seed``, so the executor's dynamic path runs.
    Each round replays the next window of a long trace (first half
    profiles, second half is replayed), in a seeded order, so a run
    covers the windows and does not hinge on one window's re-scheduling
    count.
    """

    name = "replay"
    units = ("instance", "instance")
    WINDOW = 800
    WINDOWS = 3
    cycle = WINDOWS
    THRESHOLD = 0.5
    MOVIE = "Airwolf"

    def build(self, seed: int, workdir: Path) -> Dict[str, Any]:
        graphs = _paper_graphs(
            {
                "mpeg": MPEG_DEADLINE_FACTOR,
                "cruise": CRUISE_DEADLINE_FACTOR,
                "wlan": WLAN_DEADLINE_FACTOR,
            }
        )
        make_platform = {"mpeg": mpeg_platform, "cruise": cruise_platform, "wlan": wlan_platform}
        length = self.WINDOW * self.WINDOWS
        legs = []
        for name, ctg, platform in graphs:
            if name == "mpeg":
                trace = movie_trace(ctg, self.MOVIE, length)
            elif name == "cruise":
                trace = road_trace(ctg, length, seed=derive(POOL_SEED, name))
            else:
                trace = channel_trace(ctg, length, seed=derive(POOL_SEED, name))
            et_platform = make_platform[name]()
            for i, task in enumerate(sorted(ctg.tasks())):
                et_platform.set_execution_profile(task, ET_CLASSES[i % len(ET_CLASSES)])
            windows = []
            for w in range(self.WINDOWS):
                window = trace[w * self.WINDOW : (w + 1) * self.WINDOW]
                half = self.WINDOW // 2
                windows.append((empirical_distribution(ctg, window[:half]), window[half:]))
            legs.append(
                {
                    "name": name,
                    "ctg": ctg,
                    "platform": platform,
                    "et_platform": et_platform,
                    "et_seed": derive(seed, "et", name),
                    "windows": windows,
                }
            )
        return {"legs": legs, "order": seeded_order(seed, "windows", self.WINDOWS), "tables": {}}

    def warm(self, state: Dict[str, Any]) -> None:
        for leg in state["legs"]:
            profile, test = leg["windows"][0]
            sim_mod.run_non_adaptive(leg["ctg"], leg["platform"], test[:50], profile)

    def _ops(self, leg, w: int) -> List[Tuple[str, str, Callable[[], Any]]]:
        ctg = leg["ctg"]
        profile, test = leg["windows"][w]
        config = lambda: AdaptiveConfig(window_size=MPEG_WINDOW, threshold=self.THRESHOLD)
        ops = []
        for stream, platform, et_seed in (
            ("main", leg["platform"], None),
            ("bypass", leg["et_platform"], leg["et_seed"]),
        ):
            ops.append(
                (stream, "non_adaptive",
                 lambda p=platform, s=et_seed: sim_mod.run_non_adaptive(
                     ctg, p, test, profile, et_seed=s))
            )
            ops.append(
                (stream, "adaptive",
                 lambda p=platform, s=et_seed: sim_mod.run_adaptive(
                     ctg, p, test, profile, config(), et_seed=s))
            )
        return ops

    def round(self, state: Dict[str, Any], h: Harness, r: int) -> None:
        w = state["order"][r % self.WINDOWS]
        table = {}
        for leg in state["legs"]:
            for stream, policy, fn in self._ops(leg, w):
                out = h.timed(
                    stream, self.WINDOW // 2, fn, f"{policy} replay of {leg['name']} ({stream})"
                )
                if out is not None:
                    table[f"{leg['name']}/{policy}/{stream}"] = {
                        "energy": sig(out.total_energy),
                        "misses": out.deadline_misses,
                        "calls": out.reschedule_calls,
                        "instances": len(out.energies),
                    }
        first = state["tables"].setdefault(w, table)
        if first is not table and first != table:
            h.fail(f"replay round {r} differs from an earlier replay of window {w}")
        self._invariants(table, h)

    def _invariants(self, table: Dict[str, Any], h: Harness) -> None:
        for key, row in table.items():
            graph, policy, stream = key.split("/")
            if row["misses"]:
                h.fail(f"replay {key}: {row['misses']} deadline misses")
            if policy == "non_adaptive" and row["calls"]:
                h.fail(f"replay {key}: non-adaptive run re-scheduled")
            if row["instances"] != self.WINDOW // 2:
                h.fail(f"replay {key}: replayed {row['instances']} instances")
            if stream == "bypass":
                static = float(table.get(f"{graph}/{policy}/main", {}).get("energy", "inf"))
                if not 0.0 < float(row["energy"]) <= static:
                    h.fail(f"replay {key}: sampled execution times did not lower energy")

    def check(self, state: Dict[str, Any], h: Harness) -> Dict[str, Any]:
        first = state["order"][0]
        return {"digest": digest({"window": first, "table": state["tables"].get(first, {})})}


# ----------------------------------------------------------------------
# montecarlo
# ----------------------------------------------------------------------
class MonteCarlo:
    """``monte_carlo`` on schedules built during set-up.

    ``main``: the shared-scenario fast path (no WCET variation).
    ``bypass``: ``wcet_range``, which takes the per-instance path.
    """

    name = "montecarlo"
    units = ("instance", "instance")
    cycle = 1
    INSTANCES = 20_000
    WCET_RANGE = (1.0, 1.3)
    #: instances per call replayed through the executor oracle
    SPOT_CHECKS = 3

    def build(self, seed: int, workdir: Path) -> Dict[str, Any]:
        rng = random.Random(derive(seed, "montecarlo"))
        graphs = _paper_graphs(
            {name: MONTECARLO_DEADLINE_FACTOR for name in ("mpeg", "cruise", "wlan")}
        )
        legs = []
        for name, ctg, platform in graphs:
            probabilities = _drifted(ctg, rng)
            analysis = CtgAnalysis.of(ctg)
            schedule = scheduling_mod.schedule_online(
                ctg, platform, probabilities, analysis=analysis
            ).schedule
            legs.append(
                {
                    "name": name,
                    "ctg": ctg,
                    "platform": platform,
                    "analysis": analysis,
                    "probabilities": probabilities,
                    "schedule": schedule,
                    "batch": BatchSchedule.from_ctg(schedule, analysis),
                }
            )
        return {"legs": legs, "seed": seed, "spots": [], "round0": {}}

    def _call(self, leg, seed: int, wcet: bool):
        return batch_mod.monte_carlo(
            leg["ctg"],
            leg["platform"],
            self.INSTANCES,
            seed=seed,
            probabilities=leg["probabilities"],
            analysis=leg["analysis"],
            batch=leg["batch"],
            wcet_range=self.WCET_RANGE if wcet else None,
        )

    def warm(self, state: Dict[str, Any]) -> None:
        for leg in state["legs"]:
            self._call(leg, 0, False)
            self._call(leg, 0, True)

    def round(self, state: Dict[str, Any], h: Harness, r: int) -> None:
        for leg in state["legs"]:
            for stream, wcet in (("main", False), ("bypass", True)):
                call_seed = derive(state["seed"], "mc", leg["name"], r)
                out = h.timed(
                    stream,
                    self.INSTANCES,
                    lambda: self._call(leg, call_seed, wcet),
                    f"monte_carlo({leg['name']}, wcet={wcet})",
                )
                if out is None:
                    continue
                pick = random.Random(call_seed).sample(range(out.n), self.SPOT_CHECKS)
                for i in pick:
                    state["spots"].append(
                        (
                            leg,
                            out.decisions(i),
                            None if out.wcet_factors is None else out.wcet_factors[i].copy(),
                            float(out.finish_times[i]),
                            float(out.energies[i]),
                        )
                    )
                if not wcet and out.miss_rate != 0.0:
                    h.fail(f"monte_carlo {leg['name']}: misses at WCET on a feasible schedule")
                if r == 0:
                    state["round0"][(leg["name"], wcet)] = (
                        call_seed,
                        digest([out.finish_times.tolist(), out.energies.tolist()]),
                    )

    def check(self, state: Dict[str, Any], h: Harness) -> Dict[str, Any]:
        executors = {}
        for leg, decisions, factors, finish, energy in state["spots"]:
            executor = executors.setdefault(leg["name"], InstanceExecutor(leg["schedule"]))
            if factors is None:
                outcome = executor.run(decisions)
                want_finish, want_energy = outcome.finish_time, outcome.energy
            else:
                faults = InstanceFaults(
                    instance=0,
                    wcet_factors={
                        task: float(factors[t]) for t, task in enumerate(leg["batch"].tasks)
                    },
                )
                outcome = executor.run_faulted(decisions, faults)
                want_finish, want_energy = outcome.baseline_finish_time, outcome.baseline_energy
            if abs(finish - want_finish) > 1e-9 or abs(energy - want_energy) > 1e-9 * max(
                1.0, abs(want_energy)
            ):
                h.fail(
                    f"monte_carlo {leg['name']}: instance disagrees with the executor "
                    f"(finish {finish} vs {want_finish}, energy {energy} vs {want_energy})"
                )
        legs = {leg["name"]: leg for leg in state["legs"]}
        for (name, wcet), (call_seed, want) in state["round0"].items():
            again = self._call(legs[name], call_seed, wcet)
            if digest([again.finish_times.tolist(), again.energies.tolist()]) != want:
                h.fail(f"monte_carlo {name}: same seed gave different results")
        return {"spot_checks": len(state["spots"])}


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def sweep_specs(seed: int) -> List[Any]:
    """The smoke-sized figure5, table3 and montecarlo specs.

    At the default seed these are exactly the cells
    ``repro run figure5 table3 montecarlo --smoke`` runs; other seeds
    re-seed the road sequences and the Monte-Carlo sampler.  The movie
    clips stay fixed so that every seed asks for the same amount of work.
    """
    figure5 = experiments_mod.mpeg_spec(movies=("Airwolf", "Bike"), length=200)
    sequences = tuple(CRUISE_SEQUENCES[:2])
    if seed != DEFAULT_SEED:
        sequences = tuple((derive(seed, "road", i), t) for i, (_, t) in enumerate(sequences))
    table3 = experiments_mod.table3_spec(length=200, sequences=sequences)
    montecarlo = experiments_mod.montecarlo_spec(
        workloads=("mpeg", "cruise"), n=256, seed=0 if seed == DEFAULT_SEED else derive(seed, "mc")
    )
    return [figure5, table3, montecarlo]


#: CPUs this process may use before a workload pins it to one of them.
ALL_CPUS = frozenset(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None


@contextlib.contextmanager
def all_cpus():
    """Lift CPU pinning for a block that starts worker processes (they
    inherit the affinity), then pin again."""
    pinned = os.sched_getaffinity(0) if ALL_CPUS else None
    if pinned is not None:
        os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        if pinned is not None:
            os.sched_setaffinity(0, pinned)


class Sweep:
    """``run_spec`` over the smoke-sized figure5, table3 and montecarlo specs.

    ``main``: the three specs run cold and serially into an empty cache,
    a dir cache on even rounds and a sqlite cache on odd ones.
    ``bypass``: a warm re-read of the cache just filled.  Once per run,
    outside the measured streams, a ``jobs=2`` local pool on a sqlite
    cache and a ``jobs=2`` fleet on a dir cache run the same specs cold
    on every CPU: their canonical artifacts must equal the serial ones,
    and their wall times go to the run metadata.  (Timing them in the
    streams made the figures swing with whichever CPU the host slowed.)
    """

    name = "sweep"
    units = ("cell", "cell")
    cycle = 2
    #: warm re-reads after each cold serial run
    WARM_PASSES = 200
    #: fan-out legs run once per run: leg → (jobs, worker substrate, cache backend)
    PARALLEL_LEGS = {
        "pool": (2, "local", SqliteBackend),
        "fleet": (2, "fleet", DirBackend),
    }

    def build(self, seed: int, workdir: Path) -> Dict[str, Any]:
        return {"specs": sweep_specs(seed), "workdir": workdir, "reference": None, "legs": {}}

    def warm(self, state: Dict[str, Any]) -> None:
        pass

    @staticmethod
    def _leg(specs, store: CellCache, jobs: int, workers: str):
        return [
            experiments_mod.run_spec(spec, jobs=jobs, cache=store, workers=workers)
            for spec in specs
        ]

    @staticmethod
    def _compare(state: Dict[str, Any], h: Harness, reports, what: str) -> None:
        """The canonical artifacts of every run must equal those of the
        first serial run.  Called between operations, outside their timing."""
        blob = hashlib.sha256(b"".join(_canonical(x) for x in reports)).hexdigest()
        if state["reference"] is None:
            state["reference"] = blob
        elif blob != state["reference"]:
            h.fail(f"sweep: {what} artifacts differ from the first serial run")

    def round(self, state: Dict[str, Any], h: Harness, r: int) -> None:
        specs = state["specs"]
        cells = sum(len(spec.cells) for spec in specs)
        backend = (DirBackend, SqliteBackend)[r % 2]
        leg = f"serial-{backend.__name__}"
        root = state["workdir"] / f"sweep-round-{r}"
        store = CellCache(backend=backend(root / "cache"))
        try:
            reports = h.timed(
                "main", cells, lambda: self._leg(specs, store, 1, "local"), f"sweep {leg}"
            )
            if reports is None:
                return
            self._compare(state, h, reports, f"round {r} {leg}")
            for p in range(self.WARM_PASSES):
                warm = h.timed(
                    "bypass",
                    cells,
                    lambda: self._leg(specs, store, 1, "local"),
                    f"sweep warm re-read after {leg}",
                )
                if warm is None:
                    continue
                if any(report.stats.hits != report.stats.cells for report in warm):
                    h.fail(f"sweep warm re-read after {leg} missed the cache")
                self._compare(state, h, warm, f"round {r} warm re-read {p} after {leg}")
        finally:
            store.close()
            shutil.rmtree(root, ignore_errors=True)

    def _parallel_legs(self, state: Dict[str, Any], h: Harness) -> None:
        with all_cpus():
            for leg, (jobs, workers, backend) in self.PARALLEL_LEGS.items():
                root = state["workdir"] / f"sweep-{leg}"
                store = CellCache(backend=backend(root / "cache"))
                try:
                    reports, seconds = h.attempt(
                        lambda: self._leg(state["specs"], store, jobs, workers), f"sweep {leg} leg"
                    )
                finally:
                    store.close()
                    shutil.rmtree(root, ignore_errors=True)
                if reports is not None:
                    state["legs"][leg] = seconds
                    self._compare(state, h, reports, f"{leg} leg")

    def check(self, state: Dict[str, Any], h: Harness) -> Dict[str, Any]:
        self._parallel_legs(state, h)
        return {"digest": (state["reference"] or "")[:16], "parallel_leg_s": state["legs"]}


def _canonical(report) -> bytes:
    payload = experiments_mod.canonical_artifact_payload(report)
    return json.dumps(payload, sort_keys=True).encode()


WORKLOADS = {w.name: w for w in (Reschedule(), Replay(), MonteCarlo(), Sweep())}

"""Differential tests: the vectorized stretcher against its scalar reference.

``tests/oracles/stretch_reference.py`` runs the paper's Figure-2 loop one
mutable path object at a time; :mod:`repro.scheduling.stretching` runs
it over path×scenario arrays and serves the path analytics from the
fingerprint-keyed cache on ``CtgAnalysis.path_cache``.  On the same
mapped schedule both must grant the same slack, lock the same speeds
and reason over the same number of paths, to 1e-9 — for every knob of
the heuristic, with zero-probability pruning on and off (including the
all-paths-pruned fallback), and with the analysis absent, fresh, or
warm from an earlier call.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctg import CtgAnalysis, GeneratorConfig, generate_ctg
from repro.platform import PlatformConfig, generate_platform
from repro.profiling import StageProfiler
from repro.scheduling import dls_schedule, stretch_schedule
from repro.workloads.mpeg import mpeg_ctg, mpeg_platform

from .oracles import stretch_reference

#: (nodes, branch forks, category) of the paper's Table-1 and Table-4 graphs
SHAPES = sorted(
    {(25, 3, 1), (16, 1, 1), (15, 2, 1), (15, 1, 1)}
    | {(n, b, 2) for n, b in [(25, 3), (16, 1), (15, 2), (15, 1)]}
)

TOLERANCE = 1e-9


def _instance(shape, pes, seed):
    nodes, branches, category = shape
    ctg = generate_ctg(
        GeneratorConfig(nodes=nodes, branch_nodes=branches, category=category, seed=seed)
    )
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=seed))
    return ctg, platform


def _skewed(ctg, weight):
    """The graph's branch distributions with the first outcome at ``weight``
    (0 or 1 leaves outcomes with probability zero — pruning engages)."""
    probabilities = {}
    for branch, distribution in sorted(ctg.default_probabilities.items()):
        labels = list(distribution)
        rest = (1.0 - weight) / (len(labels) - 1)
        probabilities[branch] = {
            label: (weight if i == 0 else rest) for i, label in enumerate(labels)
        }
    return probabilities


def _dead(ctg):
    """Every outcome at probability zero: every scenario, hence every
    path, is statistically impossible (the all-paths-pruned fallback)."""
    return {
        branch: {label: 0.0 for label in distribution}
        for branch, distribution in ctg.default_probabilities.items()
    }


def _close(a, b):
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def _assert_agree(ctg, platform, probabilities, analysis_mode, build=None, **knobs):
    """Stretch the same DLS schedule (mapped for ``build``, default: the
    profiled distributions) with both implementations under
    ``probabilities`` and compare the reports, the installed speeds and
    the fallback counter."""
    build = ctg.default_probabilities if build is None else build
    got_schedule = dls_schedule(ctg, platform, build)
    want_schedule = dls_schedule(ctg, platform, build)
    deadline = knobs.pop("deadline_factor") * got_schedule.makespan()

    analysis = None if analysis_mode == "absent" else CtgAnalysis.of(ctg)
    if analysis_mode == "warm":
        # an earlier call on the same mapping under another distribution
        # leaves the path structure cached
        warm = dls_schedule(ctg, platform, build)
        stretch_schedule(warm, build, deadline=deadline, analysis=analysis)

    got_prof, want_prof = StageProfiler(), StageProfiler()
    common = dict(deadline=deadline, analysis=analysis, **knobs)
    got = stretch_schedule(got_schedule, probabilities, profiler=got_prof, **common)
    want = stretch_reference.stretch_schedule(
        want_schedule, probabilities, profiler=want_prof, **common
    )

    if analysis_mode == "warm":
        assert got_prof.counter("path_cache.hit") == 1
    assert got.path_count == want.path_count
    assert got_prof.counter("stretch.prune_fallback") == want_prof.counter(
        "stretch.prune_fallback"
    )
    assert set(got.speeds) == set(want.speeds)
    assert set(got.slack_given) == set(want.slack_given)
    for task, speed in want.speeds.items():
        assert _close(got.speeds[task], speed), (task, got.speeds[task], speed)
    for task, slack in want.slack_given.items():
        assert _close(got.slack_given[task], slack), (task, got.slack_given[task], slack)
    for task, placement in want_schedule.placements.items():
        assert _close(got_schedule.placement(task).speed, placement.speed), task
    return got_prof


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    pes=st.integers(2, 4),
    seed=st.integers(0, 10_000),
    weight=st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95),
    dead=st.booleans(),
    max_passes=st.sampled_from([1, 3]),
    share_exponent=st.sampled_from([1.0, 1.0 / 3.0]),
    probability_weighted=st.booleans(),
    prune_zero_probability=st.booleans(),
    analysis_mode=st.sampled_from(["absent", "fresh", "warm"]),
    deadline_factor=st.floats(1.0, 2.5),
)
def test_stretch_matches_reference(
    shape,
    pes,
    seed,
    weight,
    dead,
    max_passes,
    share_exponent,
    probability_weighted,
    prune_zero_probability,
    analysis_mode,
    deadline_factor,
):
    ctg, platform = _instance(shape, pes, seed)
    skewed = _skewed(ctg, weight)
    _assert_agree(
        ctg,
        platform,
        _dead(ctg) if dead else skewed,
        analysis_mode,
        build=skewed,
        max_passes=max_passes,
        share_exponent=share_exponent,
        probability_weighted=probability_weighted,
        prune_zero_probability=prune_zero_probability,
        deadline_factor=deadline_factor,
    )


def test_all_paths_pruned_fallback_matches_reference():
    """The degenerate distribution takes both implementations down the
    unpruned fallback, counted once each."""
    ctg, platform = _instance((25, 3, 1), 3, 7)
    for analysis_mode in ("absent", "fresh", "warm"):
        prof = _assert_agree(
            ctg,
            platform,
            _dead(ctg),
            analysis_mode,
            prune_zero_probability=True,
            deadline_factor=1.5,
        )
        assert prof.counter("stretch.prune_fallback") == 1


def test_mpeg_matches_reference():
    ctg, platform = mpeg_ctg(), mpeg_platform()
    for max_passes in (1, 3):
        for probability_weighted in (True, False):
            _assert_agree(
                ctg,
                platform,
                _skewed(ctg, 0.8),
                "warm",
                max_passes=max_passes,
                probability_weighted=probability_weighted,
                deadline_factor=1.5,
            )

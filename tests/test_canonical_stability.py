"""Warm-cache canonical artifacts are byte-identical to cold ones.

The regression this pins down: wall-clock measurements used to live
inside cached cell ``values``, so a warm replay of the ``runtime`` (or
``table1``) experiment silently presented stale timings as canonical
data, and its canonical artifact differed byte-for-byte from a cold
run's.  Timings now live in each cell's explicitly non-canonical
``timing`` section (flagged ``cached=True`` on replay) and the spec's
``timing_keys`` are zeroed inside the reduced result, so for *every*
registered experiment a cold run and a warm replay must produce the
same canonical artifact bytes.
"""

import json

import pytest

from repro.experiments import (
    EXPERIMENTS,
    CellCache,
    canonical_artifact_payload,
    run_spec,
    validate_artifact,
)


def _canonical_bytes(report) -> bytes:
    payload = validate_artifact(canonical_artifact_payload(report))
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_warm_canonical_artifact_is_byte_identical_to_cold(name, tmp_path):
    cache = CellCache(tmp_path)
    cold = run_spec(EXPERIMENTS[name](True), jobs=1, cache=cache)
    warm = run_spec(EXPERIMENTS[name](True), jobs=1, cache=cache)

    assert cold.stats.misses == len(cold.cells)
    assert warm.stats.hits == len(warm.cells)
    assert all(cell.cached for cell in warm.cells)
    assert _canonical_bytes(warm) == _canonical_bytes(cold)


def test_timed_specs_declare_their_timing_keys():
    """The experiments that measure wall-clock must mark those fields
    non-canonical; a new timed result field without a matching
    ``timing_keys`` entry would leak machine-dependent numbers back
    into canonical artifacts."""
    expected = {
        "runtime": ("heuristic_seconds", "nlp_seconds"),
        "table1": ("online_runtime", "reference_2_runtime"),
        "montecarlo": ("sweep_seconds",),
    }
    for name, keys in expected.items():
        assert EXPERIMENTS[name](True).timing_keys == keys


def test_cached_replay_keeps_timing_but_flags_it(tmp_path):
    """A warm cell still carries its compute-time measurements (for
    ``repro report``-style consumers) but is flagged ``cached`` so they
    are never mistaken for fresh numbers."""
    cache = CellCache(tmp_path)
    run_spec(EXPERIMENTS["runtime"](True), jobs=1, cache=cache)
    warm = run_spec(EXPERIMENTS["runtime"](True), jobs=1, cache=cache)
    for cell in warm.cells:
        assert cell.cached
        assert cell.timing["heuristic_seconds"] > 0.0
        assert cell.timing["nlp_seconds"] > 0.0
        assert "heuristic_seconds" not in cell.values

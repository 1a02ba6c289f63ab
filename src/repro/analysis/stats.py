"""Small-sample statistics for experiment robustness reports.

The synthetic traces make every experiment a random draw; a single
seed can flatter or sandbag the adaptive framework (the paper reports
single runs per clip).  These helpers quantify the spread: mean,
standard deviation and a Student-t confidence interval over a seed
sweep, which the robustness bench uses to assert the *distribution* of
savings is positive rather than one lucky sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SampleSummary:
    """Mean / spread / confidence interval of one metric's samples."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    def format(self, unit: str = "") -> str:
        """One-line human-readable rendering."""
        return (
            f"n={self.count}: mean {self.mean:.2f}{unit} ± {self.std:.2f} "
            f"({int(self.confidence * 100)}% CI [{self.ci_low:.2f}, "
            f"{self.ci_high:.2f}]{unit})"
        )


def summarize_samples(
    samples: Sequence[float], confidence: float = 0.95
) -> SampleSummary:
    """Mean, sample std and Student-t confidence interval."""
    # local import: loading scipy.stats would dominate the start-up of
    # every CLI call and fleet worker, and only this function needs it
    from scipy import stats as scipy_stats

    n = len(samples)
    if n < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    mean = sum(samples) / n
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    half_width = scipy_stats.t.ppf((1 + confidence) / 2, df=n - 1) * std / math.sqrt(n)
    return SampleSummary(
        count=n,
        mean=mean,
        std=std,
        ci_low=mean - half_width,
        ci_high=mean + half_width,
        confidence=confidence,
    )

"""Summary statistics of the benchmark's samples.

A tail percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it, so a p95 needs 200 samples; with fewer the
percentile is refused rather than read off a handful of points.
Percentiles use the nearest-rank rule: the p-th percentile of ``n``
sorted samples is the ``ceil(p/100 * n)``-th of them.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

__all__ = [
    "MIN_BEYOND",
    "InsufficientSamples",
    "median",
    "percentile",
    "samples_beyond",
]

#: Samples a reported percentile must have beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise InsufficientSamples("median of no samples")
    return float(statistics.median(values))


def _rank(count: int, percent: float) -> int:
    if not 0 < percent < 100:
        raise ValueError(f"percentile must be in (0, 100), got {percent}")
    return max(1, math.ceil(percent / 100.0 * count))


def samples_beyond(count: int, percent: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank percentile."""
    return count - _rank(count, percent)


def percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile, refused when the tail beyond it is too thin."""
    beyond = samples_beyond(len(values), percent) if values else 0
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{percent:g} of {len(values)} samples has {beyond} beyond it, "
            f"needs {MIN_BEYOND}"
        )
    return float(sorted(values)[_rank(len(values), percent) - 1])

"""Small statistics helpers shared by the path-diversity analyses (§VI).

The paper reports its results as empirical CDFs over ASes or AS pairs;
this module provides the CDF construction, the "fraction of samples
above a threshold" readings quoted in the text, and summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical cumulative distribution function over sample values."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        unordered = np.isnan(values)
        if unordered.any():
            position = int(np.argmax(unordered))
            raise ValueError(
                f"EmpiricalCDF sample {position} is {float(values[position])!r}; "
                "NaN cannot be ordered"
            )
        object.__setattr__(
            self, "values", tuple(np.sort(values, kind="stable").tolist())
        )

    @property
    def count(self) -> int:
        """Number of samples."""
        return len(self.values)

    def at(self, threshold: float) -> float:
        """CDF value ``P[X ≤ threshold]``."""
        if not self.values:
            return 0.0
        return float(np.searchsorted(self.values, threshold, side="right")) / self.count

    def fraction_above(self, threshold: float) -> float:
        """Fraction of samples strictly greater than a threshold."""
        if not self.values:
            return 0.0
        return 1.0 - self.at(threshold)

    def fraction_at_least(self, threshold: float) -> float:
        """Fraction of samples greater than or equal to a threshold."""
        if not self.values:
            return 0.0
        below = float(np.searchsorted(self.values, threshold, side="left")) / self.count
        return 1.0 - below

    def quantile(self, q: float) -> float:
        """Empirical quantile of the samples."""
        if not self.values:
            raise ValueError("cannot take the quantile of an empty CDF")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(np.array(self.values), q))

    @property
    def mean(self) -> float:
        """Mean of the samples."""
        if not self.values:
            return 0.0
        return float(np.mean(self.values))

    @property
    def median(self) -> float:
        """Median of the samples."""
        return self.quantile(0.5)

    @property
    def maximum(self) -> float:
        """Maximum of the samples."""
        if not self.values:
            raise ValueError("empty CDF has no maximum")
        return self.values[-1]

    @property
    def minimum(self) -> float:
        """Minimum of the samples."""
        if not self.values:
            raise ValueError("empty CDF has no minimum")
        return self.values[0]

    def series(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(x, y) series of the CDF, suitable for plotting or tabulation."""
        if not self.values:
            return ((), ())
        xs = self.values
        ys = tuple((np.arange(1, self.count + 1) / self.count).tolist())
        return xs, ys


def summarize(values: list[float] | tuple[float, ...]) -> dict[str, float]:
    """Mean / median / min / max summary of a list of values."""
    if not values:
        return {"count": 0.0, "mean": 0.0, "median": 0.0, "min": 0.0, "max": 0.0}
    array = np.array([float(v) for v in values])
    return {
        "count": float(array.size),
        "mean": float(np.mean(array)),
        "median": float(np.median(array)),
        "min": float(np.min(array)),
        "max": float(np.max(array)),
    }

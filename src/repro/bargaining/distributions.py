"""Utility distributions for the BOSCO mechanism (§V-C1).

The BOSCO service does not know the true agreement utilities of the two
parties, but is assumed to be able to estimate a *utility distribution*
``U_Z(u)`` per party — the probability density that party ``Z`` derives
utility ``u`` from the agreement.  The mechanism's evaluation (Fig. 2)
uses two uniform joint distributions:

- ``U(1)``: uniform on ``[−1, 1] × [−1, 1]``,
- ``U(2)``: uniform on ``[−1/2, 1] × [−1/2, 1]``.

This module defines the distribution interface the mechanism needs
(probability mass and first partial moment over intervals, plus
sampling) and the concrete distributions used in the paper.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np


class UtilityDistribution(abc.ABC):
    """A one-dimensional distribution over a party's agreement utility."""

    @property
    @abc.abstractmethod
    def lower(self) -> float:
        """Lower end of the support."""

    @property
    @abc.abstractmethod
    def upper(self) -> float:
        """Upper end of the support."""

    @abc.abstractmethod
    def pdf(self, utility: float) -> float:
        """Probability density at a utility value."""

    @abc.abstractmethod
    def mass(self, low: float, high: float) -> float:
        """Probability that the utility falls into ``[low, high)``."""

    @abc.abstractmethod
    def partial_mean(self, low: float, high: float) -> float:
        """First partial moment ``∫_low^high u · f(u) du``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw samples from the distribution."""

    @property
    def mean(self) -> float:
        """Expected utility."""
        return self.partial_mean(self.lower, self.upper)


@dataclass(frozen=True)
class UniformUtilityDistribution(UtilityDistribution):
    """Uniform utility distribution on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.high > self.low:
            raise ValueError(
                f"upper bound must exceed lower bound, got [{self.low}, {self.high}]"
            )
        # An infinite width makes the density 0.0 and every interval
        # mass ``∞ · 0.0 = NaN``, so there is no distribution to evaluate.
        if not math.isfinite(self.high - self.low):
            raise ValueError(
                f"bounds must be finite with a finite width, got [{self.low}, {self.high}]"
            )

    @property
    def lower(self) -> float:
        return self.low

    @property
    def upper(self) -> float:
        return self.high

    @property
    def _density(self) -> float:
        return 1.0 / (self.high - self.low)

    def pdf(self, utility: float) -> float:
        if self.low <= utility <= self.high:
            return self._density
        return 0.0

    def mass(self, low: float, high: float) -> float:
        lo = max(low, self.low)
        hi = min(high, self.high)
        if hi <= lo:
            return 0.0
        return (hi - lo) * self._density

    def partial_mean(self, low: float, high: float) -> float:
        lo = max(low, self.low)
        hi = min(high, self.high)
        if hi <= lo:
            return 0.0
        return self._density * (hi * hi - lo * lo) / 2.0

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)


@dataclass(frozen=True)
class TruncatedNormalUtilityDistribution(UtilityDistribution):
    """Normal distribution truncated to ``[low, high]``.

    Not used in the paper's figure, but a natural heuristic estimate of
    agreement utilities ("standard transit and equipment prices plus
    noise"); it exercises the mechanism with a non-uniform prior and is
    used in the ablation benchmarks.
    """

    location: float
    scale: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not self.high > self.low:
            raise ValueError(
                f"upper bound must exceed lower bound, got [{self.low}, {self.high}]"
            )

    @property
    def lower(self) -> float:
        return self.low

    @property
    def upper(self) -> float:
        return self.high

    def _phi(self, value: float) -> float:
        return math.exp(-0.5 * value * value) / math.sqrt(2.0 * math.pi)

    def _cdf_standard(self, value: float) -> float:
        return 0.5 * (1.0 + math.erf(value / math.sqrt(2.0)))

    @property
    def _normalizer(self) -> float:
        a = (self.low - self.location) / self.scale
        b = (self.high - self.location) / self.scale
        return self._cdf_standard(b) - self._cdf_standard(a)

    def pdf(self, utility: float) -> float:
        if not self.low <= utility <= self.high:
            return 0.0
        z = (utility - self.location) / self.scale
        return self._phi(z) / (self.scale * self._normalizer)

    def mass(self, low: float, high: float) -> float:
        lo = max(low, self.low)
        hi = min(high, self.high)
        if hi <= lo:
            return 0.0
        a = (lo - self.location) / self.scale
        b = (hi - self.location) / self.scale
        return (self._cdf_standard(b) - self._cdf_standard(a)) / self._normalizer

    def partial_mean(self, low: float, high: float) -> float:
        lo = max(low, self.low)
        hi = min(high, self.high)
        if hi <= lo:
            return 0.0
        from scipy import integrate  # deferred: only this quadrature needs scipy

        value, _ = integrate.quad(lambda u: u * self.pdf(u), lo, hi)
        return value

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        samples = []
        while len(samples) < size:
            draw = rng.normal(self.location, self.scale, size=size)
            samples.extend(float(x) for x in draw if self.low <= x <= self.high)
        return np.array(samples[:size])


@dataclass(frozen=True)
class JointUtilityDistribution:
    """Independent joint distribution of the two parties' utilities."""

    marginal_x: UtilityDistribution
    marginal_y: UtilityDistribution

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` pairs ``(u_X, u_Y)``."""
        return np.column_stack(
            (self.marginal_x.sample(rng, size), self.marginal_y.sample(rng, size))
        )


def paper_distribution_u1() -> JointUtilityDistribution:
    """The paper's ``U(1)``: uniform on ``[−1, 1] × [−1, 1]``."""
    return JointUtilityDistribution(
        marginal_x=UniformUtilityDistribution(-1.0, 1.0),
        marginal_y=UniformUtilityDistribution(-1.0, 1.0),
    )


def paper_distribution_u2() -> JointUtilityDistribution:
    """The paper's ``U(2)``: uniform on ``[−1/2, 1] × [−1/2, 1]``."""
    return JointUtilityDistribution(
        marginal_x=UniformUtilityDistribution(-0.5, 1.0),
        marginal_y=UniformUtilityDistribution(-0.5, 1.0),
    )

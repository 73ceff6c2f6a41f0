"""Bargaining strategies and equilibrium profiles (§V-C4–C5).

A bargaining strategy ``σ_Z(u_Z)`` maps the true utility of a party to a
choice from its choice set.  Because the expected after-negotiation
utility of committing choice ``v_{X,i}`` is a *linear* function
``m_i · u_X + q_i`` of the true utility, every best-response strategy is
a threshold strategy: the real line is partitioned into half-open
intervals ``[t_i, t_{i+1})`` and choice ``i`` is played on the ``i``-th
interval.  Algorithm 1 of the paper computes that threshold series as
the upper envelope of the lines ``(m_i, q_i)``; the batched
:class:`~repro.bargaining.engine.NegotiationEngine` runs it, and a
:class:`StrategyProfile` holds the equilibrium it finds.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from repro.bargaining.choices import ChoiceSet


@dataclass(frozen=True)
class ThresholdStrategy:
    """A threshold strategy over a choice set.

    ``thresholds`` has one entry per choice: ``thresholds[i]`` is the
    lower end of the utility interval on which choice ``i`` is played;
    the interval's upper end is ``thresholds[i+1]`` (or ``+∞`` for the
    last choice).  The first threshold is always ``−∞`` so that the
    strategy is total.
    """

    choices: ChoiceSet
    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.thresholds) != len(self.choices):
            raise ValueError(
                f"need one threshold per choice: {len(self.thresholds)} thresholds for "
                f"{len(self.choices)} choices"
            )
        if self.thresholds[0] != float("-inf"):
            raise ValueError("the first threshold must be −∞ so the strategy is total")
        if any(b < a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be non-decreasing")

    def choice_index(self, utility: float) -> int:
        """Index of the choice played for a true utility value."""
        # The choice for u is the largest i with thresholds[i] <= u whose
        # interval [t_i, t_{i+1}) is non-empty and contains u.
        index = bisect.bisect_right(self.thresholds, utility) - 1
        return max(0, index)

    def __call__(self, utility: float) -> float:
        """The claim committed for a true utility value."""
        return self.choices[self.choice_index(utility)]

    def interval(self, index: int) -> tuple[float, float]:
        """The utility interval on which choice ``index`` is played."""
        upper = (
            self.thresholds[index + 1]
            if index + 1 < len(self.thresholds)
            else float("inf")
        )
        return (self.thresholds[index], upper)

    def equilibrium_choice_indices(self) -> tuple[int, ...]:
        """Indices of choices with a non-empty interval (played for some utility)."""
        played = []
        for index in range(len(self.choices)):
            low, high = self.interval(index)
            if high > low:
                played.append(index)
        return tuple(played)

    def shortest_nonempty_interval(self) -> float:
        """Length of the shortest non-empty finite interval.

        §V-D proposes this as a quantitative privacy measure: the shorter
        the interval behind a choice, the more precisely an observer can
        infer the true utility from that choice.
        """
        lengths = []
        for index in range(len(self.choices)):
            low, high = self.interval(index)
            if high > low and math.isfinite(low) and math.isfinite(high):
                lengths.append(high - low)
        return min(lengths) if lengths else float("inf")

    def approximately_equal(self, other: "ThresholdStrategy", tolerance: float = 1e-9) -> bool:
        """Whether two strategies have (numerically) identical thresholds."""
        if self.choices.values != other.choices.values:
            return False
        for a, b in zip(self.thresholds, other.thresholds):
            if a == b:
                continue
            if math.isinf(a) or math.isinf(b):
                return False
            if abs(a - b) > tolerance:
                return False
        return True


@dataclass(frozen=True)
class StrategyProfile:
    """A pair of strategies, one per party."""

    strategy_x: ThresholdStrategy
    strategy_y: ThresholdStrategy


class EquilibriumError(Exception):
    """Raised when best-response dynamics fail to converge.

    Carries a diagnostic payload so callers can log *how* the search
    failed instead of silently retrying: ``iterations`` is the number of
    best-response rounds performed by the last attempted start,
    ``last_delta`` the largest threshold movement in its final round
    (``∞`` when an infinity flipped sides), and ``skipped_trials`` the
    number of configuration trials discarded before the failure was
    raised (set by :class:`~repro.bargaining.mechanism.BoscoService`).
    """

    def __init__(
        self,
        message: str,
        *,
        iterations: int | None = None,
        last_delta: float | None = None,
        skipped_trials: int | None = None,
    ) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.last_delta = last_delta
        self.skipped_trials = skipped_trials

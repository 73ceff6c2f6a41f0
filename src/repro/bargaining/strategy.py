"""Bargaining strategies and best-response computation (§V-C4, Algorithm 1).

A bargaining strategy ``σ_Z(u_Z)`` maps the true utility of a party to a
choice from its choice set.  Because the expected after-negotiation
utility of committing choice ``v_{X,i}`` is a *linear* function
``m_i · u_X + q_i`` of the true utility, every best-response strategy is
a threshold strategy: the real line is partitioned into half-open
intervals ``[t_i, t_{i+1})`` and choice ``i`` is played on the ``i``-th
interval.  Algorithm 1 of the paper computes that threshold series as
the upper envelope of the lines ``(m_i, q_i)``.
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


def truthful_like_strategy(choices: ChoiceSet) -> ThresholdStrategy:
    """The quantized-truthful strategy: claim the largest choice below the truth.

    Used as the starting point of best-response dynamics; any starting
    strategy works (§V-C5), but this one is close to the truthful
    strategy and converges quickly.
    """
    thresholds = [float("-inf")]
    thresholds.extend(choices.finite_values)
    return ThresholdStrategy(choices=choices, thresholds=tuple(thresholds))


def compute_best_response(
    choices: ChoiceSet,
    slopes: list[float],
    intercepts: list[float],
) -> ThresholdStrategy:
    """Algorithm 1: best-response thresholds from the lines ``(m_i, q_i)``.

    ``slopes[i] = m_i`` and ``intercepts[i] = q_i`` describe the expected
    after-negotiation utility ``m_i · u + q_i`` of committing choice
    ``i``.  The slopes are non-decreasing in ``i`` (the conclusion
    probability grows with the claim); the best response plays, for every
    true utility ``u``, the choice whose line is the upper envelope at
    ``u``.  The threshold series is the sequence of takeover points of
    that envelope.
    """
    count = len(choices)
    if len(slopes) != count or len(intercepts) != count:
        raise ValueError("need one (slope, intercept) pair per choice")
    for index in range(1, count):
        if slopes[index] < slopes[index - 1] - 1e-12:
            raise ValueError(
                "slopes must be non-decreasing in the choice index (the conclusion "
                "probability grows with the claim)"
            )

    infinity = float("inf")
    thresholds = [infinity] * count
    thresholds[0] = float("-inf")

    # Lines with the same slope never cross; only the one with the highest
    # intercept can ever be optimal.  Keep exactly one "active" line per
    # distinct slope (the paper notes the others are never played).
    active: list[int] = []
    index = 0
    while index < count:
        best = index
        runner = index
        while runner < count and slopes[runner] == slopes[index]:
            if intercepts[runner] > intercepts[best]:
                best = runner
            runner += 1
        active.append(best)
        index = runner

    # The line optimal for u → −∞ is the active line with the smallest slope.
    for lower in range(active[0] + 1):
        thresholds[lower] = float("-inf")

    position = 0
    while position + 1 < len(active):
        current = active[position]
        best_crossing = infinity
        best_position = None
        for next_position in range(position + 1, len(active)):
            candidate = active[next_position]
            crossing = (intercepts[current] - intercepts[candidate]) / (
                slopes[candidate] - slopes[current]
            )
            steeper_tie = (
                best_position is not None
                and crossing == best_crossing
                and slopes[candidate] > slopes[active[best_position]]
            )
            if crossing < best_crossing or steeper_tie:
                best_crossing = crossing
                best_position = next_position
        if best_position is None:
            # Every crossing overflowed to +inf (slope gaps too small to
            # divide by): the remaining lines never take over at a finite u.
            break
        thresholds[active[best_position]] = best_crossing
        position = best_position

    # Choices that never appear on the envelope get an empty interval:
    # their lower threshold is pulled up to the next assigned threshold.
    for index in range(active[0] + 1, count):
        if thresholds[index] == infinity:
            later = [thresholds[j] for j in range(index + 1, count)]
            later.append(infinity)
            thresholds[index] = min(later)

    # Enforce monotonicity against floating-point jitter.
    for index in range(1, count):
        if thresholds[index] < thresholds[index - 1]:
            thresholds[index] = thresholds[index - 1]

    return ThresholdStrategy(choices=choices, thresholds=tuple(thresholds))

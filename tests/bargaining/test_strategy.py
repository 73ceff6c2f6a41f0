"""Unit tests for threshold strategies and Algorithm 1 (best response)."""

import math

import pytest

from repro.bargaining.choices import CANCEL, ChoiceSet
from repro.bargaining.strategy import ThresholdStrategy
from repro.reference import compute_best_response, truthful_like_strategy


@pytest.fixture()
def three_choices():
    return ChoiceSet.from_values([-0.5, 0.0, 0.5])


class TestThresholdStrategy:
    def test_threshold_count_must_match(self, three_choices):
        with pytest.raises(ValueError):
            ThresholdStrategy(choices=three_choices, thresholds=(-math.inf, 0.0))

    def test_first_threshold_must_be_minus_infinity(self, three_choices):
        with pytest.raises(ValueError):
            ThresholdStrategy(
                choices=three_choices, thresholds=(0.0, 0.1, 0.2, 0.3)
            )

    def test_thresholds_must_be_monotone(self, three_choices):
        with pytest.raises(ValueError):
            ThresholdStrategy(
                choices=three_choices, thresholds=(-math.inf, 0.5, 0.2, 0.7)
            )

    def test_choice_lookup(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, -0.4, 0.1, 0.6)
        )
        assert strategy(-1.0) == CANCEL
        assert strategy(-0.2) == -0.5
        assert strategy(0.3) == 0.0
        assert strategy(0.9) == 0.5

    def test_interval_boundaries_are_half_open(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, -0.4, 0.1, 0.6)
        )
        assert strategy(0.1) == 0.0
        assert strategy(0.6) == 0.5

    def test_interval(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, -0.4, 0.1, 0.6)
        )
        assert strategy.interval(0) == (-math.inf, -0.4)
        assert strategy.interval(3) == (0.6, math.inf)

    def test_equilibrium_choice_indices_skip_empty_intervals(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, 0.1, 0.1, 0.6)
        )
        assert strategy.equilibrium_choice_indices() == (0, 2, 3)

    def test_shortest_nonempty_interval(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, -0.4, 0.1, 0.6)
        )
        assert strategy.shortest_nonempty_interval() == pytest.approx(0.5)

    def test_approximately_equal(self, three_choices):
        a = ThresholdStrategy(choices=three_choices, thresholds=(-math.inf, -0.4, 0.1, 0.6))
        b = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, -0.4 + 1e-12, 0.1, 0.6)
        )
        c = ThresholdStrategy(choices=three_choices, thresholds=(-math.inf, 0.0, 0.1, 0.6))
        assert a.approximately_equal(b)
        assert not a.approximately_equal(c)

    def test_truthful_like_strategy(self, three_choices):
        strategy = truthful_like_strategy(three_choices)
        assert strategy(-1.0) == CANCEL
        assert strategy(-0.5) == -0.5
        assert strategy(0.2) == 0.0
        assert strategy(10.0) == 0.5


class TestComputeBestResponse:
    def test_requires_one_line_per_choice(self, three_choices):
        with pytest.raises(ValueError):
            compute_best_response(three_choices, [0.0], [0.0])

    def test_upper_envelope_simple_case(self, three_choices):
        # Lines: cancel 0, then 0.2u + 0.3, 0.5u + 0.1, 1.0u - 0.4.
        slopes = [0.0, 0.2, 0.5, 1.0]
        intercepts = [0.0, 0.3, 0.1, -0.4]
        strategy = compute_best_response(three_choices, slopes, intercepts)
        # Verify pointwise against brute force over a utility grid.
        for u in [x / 10.0 for x in range(-30, 31)]:
            best_index = max(
                range(4), key=lambda i: (slopes[i] * u + intercepts[i], slopes[i])
            )
            chosen = strategy.choice_index(u)
            chosen_value = slopes[chosen] * u + intercepts[chosen]
            best_value = slopes[best_index] * u + intercepts[best_index]
            assert chosen_value == pytest.approx(best_value, abs=1e-9)

    def test_dominated_line_gets_empty_interval(self, three_choices):
        # The second finite choice has the same slope as the first but a
        # lower intercept: it must never be played.
        slopes = [0.0, 0.5, 0.5, 1.0]
        intercepts = [0.0, 0.4, 0.1, -0.2]
        strategy = compute_best_response(three_choices, slopes, intercepts)
        low, high = strategy.interval(2)
        assert high <= low

    def test_cancel_option_plays_for_very_negative_utilities(self, three_choices):
        slopes = [0.0, 0.3, 0.6, 0.9]
        intercepts = [0.0, -0.1, -0.2, -0.3]
        strategy = compute_best_response(three_choices, slopes, intercepts)
        assert strategy(-100.0) == CANCEL

    def test_highest_choice_plays_for_large_utilities(self, three_choices):
        slopes = [0.0, 0.3, 0.6, 0.9]
        intercepts = [0.0, 0.1, 0.0, -0.2]
        strategy = compute_best_response(three_choices, slopes, intercepts)
        assert strategy(100.0) == 0.5

    def test_all_identical_lines_keep_single_choice(self, three_choices):
        slopes = [0.0, 0.0, 0.0, 0.0]
        intercepts = [0.0, 0.0, 0.0, 0.0]
        strategy = compute_best_response(three_choices, slopes, intercepts)
        # With all lines identical there is no takeover point: the cancel
        # option is played everywhere.
        assert strategy(5.0) == CANCEL
        assert strategy(-5.0) == CANCEL

    def test_crossings_beyond_the_float_range_never_take_over(self, three_choices):
        # A subnormal slope gap makes every crossing overflow to +inf.
        slopes = [0.0, 1e-309, 1e-309, 1e-309]
        intercepts = [1.0, 0.0, 0.0, 0.0]
        strategy = compute_best_response(three_choices, slopes, intercepts)
        assert strategy.thresholds[1:] == (math.inf, math.inf, math.inf)
        assert strategy(1e300) == CANCEL


class TestChoiceIndexBoundaries:
    """Regression pins for the bisect-based ``choice_index`` lookup.

    The lookup is ``bisect_right`` over the threshold series (O(log W)
    instead of a linear scan); these tests freeze its behavior exactly
    at interval boundaries, where an off-by-one in the bisection side
    would silently flip claims.
    """

    def test_utility_exactly_on_a_threshold_plays_that_choice(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, -0.4, 0.1, 0.6)
        )
        # Intervals are half-open [t_i, t_{i+1}): the boundary belongs
        # to the upper choice.
        assert strategy.choice_index(-0.4) == 1
        assert strategy.choice_index(0.1) == 2
        assert strategy.choice_index(0.6) == 3

    def test_just_below_a_threshold_plays_the_lower_choice(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, -0.4, 0.1, 0.6)
        )
        assert strategy.choice_index(math.nextafter(0.1, -math.inf)) == 1
        assert strategy.choice_index(math.nextafter(0.6, -math.inf)) == 2

    def test_duplicated_thresholds_resolve_to_the_last_choice(self, three_choices):
        # An empty interval [0.1, 0.1) can never be played: the shared
        # boundary belongs to the rightmost choice carrying it.
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, 0.1, 0.1, 0.1)
        )
        assert strategy.choice_index(0.1) == 3
        assert strategy.choice_index(math.nextafter(0.1, -math.inf)) == 0
        assert 1 not in strategy.equilibrium_choice_indices()
        assert 2 not in strategy.equilibrium_choice_indices()

    def test_extreme_utilities(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, -0.4, 0.1, 0.6)
        )
        assert strategy.choice_index(-math.inf) == 0
        assert strategy.choice_index(math.inf) == 3

    def test_infinite_upper_thresholds_never_play(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, 0.0, math.inf, math.inf)
        )
        assert strategy.choice_index(math.inf) == 3
        assert strategy.choice_index(1e300) == 1

    def test_matches_a_linear_scan_reference(self, three_choices):
        strategy = ThresholdStrategy(
            choices=three_choices, thresholds=(-math.inf, -0.4, -0.4, 0.6)
        )

        def linear_scan(utility):
            best = 0
            for index in range(len(strategy.thresholds)):
                if strategy.thresholds[index] <= utility:
                    best = index
            return best

        probes = [-1.0, -0.4, -0.3999, 0.0, 0.6, 0.7, math.inf, -math.inf]
        for utility in probes:
            assert strategy.choice_index(utility) == linear_scan(utility)

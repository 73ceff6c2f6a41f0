"""Unit tests for the bargaining game and its equilibria."""

import math

import numpy as np
import pytest

from repro.bargaining.choices import ChoiceSet, random_choice_set
from repro.bargaining.distributions import UniformUtilityDistribution
from repro.bargaining.strategy import StrategyProfile, ThresholdStrategy
from repro.reference import (
    BargainingGame,
    choice_probabilities,
    response_lines,
    truthful_like_strategy,
)


@pytest.fixture()
def symmetric_game():
    distribution = UniformUtilityDistribution(-1.0, 1.0)
    rng = np.random.default_rng(3)
    choices_x = random_choice_set(distribution, 15, rng)
    choices_y = random_choice_set(distribution, 15, rng)
    return BargainingGame(
        distribution_x=distribution,
        distribution_y=distribution,
        choices_x=choices_x,
        choices_y=choices_y,
    )


class TestChoiceProbabilities:
    def test_probabilities_sum_to_one(self):
        distribution = UniformUtilityDistribution(-1.0, 1.0)
        choices = ChoiceSet.from_values([-0.5, 0.0, 0.5])
        strategy = truthful_like_strategy(choices)
        probabilities = choice_probabilities(strategy, distribution)
        assert sum(probabilities) == pytest.approx(1.0)

    def test_probabilities_match_interval_masses(self):
        distribution = UniformUtilityDistribution(-1.0, 1.0)
        choices = ChoiceSet.from_values([-0.5, 0.0, 0.5])
        strategy = truthful_like_strategy(choices)
        probabilities = choice_probabilities(strategy, distribution)
        # Intervals: (-inf,-0.5), [-0.5,0), [0,0.5), [0.5,inf) on [-1,1].
        assert probabilities == pytest.approx([0.25, 0.25, 0.25, 0.25])


class TestResponseLines:
    def test_cancel_option_has_zero_line(self):
        distribution = UniformUtilityDistribution(-1.0, 1.0)
        choices = ChoiceSet.from_values([-0.5, 0.0, 0.5])
        strategy = truthful_like_strategy(choices)
        probabilities = choice_probabilities(strategy, distribution)
        slopes, intercepts = response_lines(choices, choices, probabilities)
        assert slopes[0] == 0.0
        assert intercepts[0] == 0.0

    def test_slopes_are_nondecreasing_in_the_claim(self):
        """Higher claims conclude against more opponent claims (Eq. 16 is a CCDF)."""
        distribution = UniformUtilityDistribution(-1.0, 1.0)
        choices = ChoiceSet.from_values([-0.6, -0.2, 0.3, 0.8])
        strategy = truthful_like_strategy(choices)
        probabilities = choice_probabilities(strategy, distribution)
        slopes, _ = response_lines(choices, choices, probabilities)
        finite_slopes = slopes[1:]
        assert finite_slopes == sorted(finite_slopes)

    def test_slope_is_conclusion_probability(self):
        distribution = UniformUtilityDistribution(-1.0, 1.0)
        choices = ChoiceSet.from_values([-0.5, 0.0, 0.5])
        strategy = truthful_like_strategy(choices)
        probabilities = choice_probabilities(strategy, distribution)
        slopes, _ = response_lines(choices, choices, probabilities)
        # Claiming 0.5 concludes against opponent claims ≥ -0.5, i.e. all
        # finite claims: probability 0.75.
        assert slopes[3] == pytest.approx(0.75)


class TestEquilibrium:
    def test_best_response_is_threshold_strategy(self, symmetric_game):
        opponent = truthful_like_strategy(symmetric_game.choices_y)
        response = symmetric_game.best_response("x", opponent)
        assert isinstance(response, ThresholdStrategy)
        assert response.thresholds[0] == -math.inf

    def test_invalid_party_name(self, symmetric_game):
        with pytest.raises(ValueError):
            symmetric_game.best_response("z", truthful_like_strategy(symmetric_game.choices_y))

    def test_dynamics_converge(self, symmetric_game):
        profile = symmetric_game.find_equilibrium()
        assert isinstance(profile, StrategyProfile)

    def test_equilibrium_is_mutual_best_response(self, symmetric_game):
        profile = symmetric_game.find_equilibrium()
        assert symmetric_game.is_equilibrium(profile)

    def test_equilibrium_uses_a_few_choices(self, symmetric_game):
        """The paper observes that only a handful of choices are played in
        equilibrium even when many are available."""
        profile = symmetric_game.find_equilibrium()
        played_x = profile.strategy_x.equilibrium_choice_indices()
        assert 1 <= len(played_x) <= 8

    def test_truthful_profile_is_generally_not_an_equilibrium(self, symmetric_game):
        profile = StrategyProfile(
            strategy_x=truthful_like_strategy(symmetric_game.choices_x),
            strategy_y=truthful_like_strategy(symmetric_game.choices_y),
        )
        assert not symmetric_game.is_equilibrium(profile)

    def test_equilibrium_reproducible(self, symmetric_game):
        first = symmetric_game.find_equilibrium()
        second = symmetric_game.find_equilibrium()
        assert first.strategy_x.approximately_equal(second.strategy_x)
        assert first.strategy_y.approximately_equal(second.strategy_y)


class TestEquilibriumErrorDiagnostics:
    def test_error_carries_iteration_and_delta_payload(self, symmetric_game):
        from repro.bargaining.strategy import EquilibriumError

        # max_iterations=1 cannot confirm convergence, so the search
        # exhausts every starting profile and reports its last attempt.
        with pytest.raises(EquilibriumError) as excinfo:
            symmetric_game.find_equilibrium(max_iterations=1)
        error = excinfo.value
        assert error.iterations == 1
        assert error.last_delta is not None and error.last_delta >= 0.0

    def test_payload_defaults_to_none(self):
        from repro.bargaining.strategy import EquilibriumError

        error = EquilibriumError("boom")
        assert error.iterations is None
        assert error.last_delta is None
        assert error.skipped_trials is None

    def test_profile_delta(self):
        from repro.reference import profile_delta

        assert profile_delta((-math.inf, 0.0), (-math.inf, 0.0)) == 0.0
        assert profile_delta((-math.inf, 0.5), (-math.inf, 0.25)) == 0.25
        assert profile_delta((-math.inf, math.inf), (-math.inf, 1.0)) == math.inf

"""Unit tests for bargaining-efficiency metrics (expected Nash product, PoD)."""

import math

import numpy as np
import pytest

from repro.bargaining.choices import ChoiceSet, random_choice_set
from repro.bargaining.distributions import (
    JointUtilityDistribution,
    UniformUtilityDistribution,
    paper_distribution_u1,
    paper_distribution_u2,
)
from repro.bargaining.efficiency import expected_truthful_nash_product
from repro.bargaining.strategy import StrategyProfile
from repro.reference import (
    BargainingGame,
    expected_nash_product,
    nash_product_value,
    price_of_dishonesty,
    truthful_like_strategy,
)


class TestNashProductValue:
    def test_cancelled_when_apparent_surplus_negative(self):
        assert nash_product_value(1.0, 1.0, 0.2, -0.5) == 0.0

    def test_cancelled_when_either_claim_is_cancel(self):
        assert nash_product_value(1.0, 1.0, -math.inf, 0.5) == 0.0

    def test_concluded_value(self):
        # Claims 0.4 and 0.2: transfer 0.1; (1.0-0.1)*(0.5+0.1) = 0.54.
        assert nash_product_value(1.0, 0.5, 0.4, 0.2) == pytest.approx(0.54)

    def test_truthful_claims_give_square_of_half_surplus(self):
        value = nash_product_value(0.8, 0.2, 0.8, 0.2)
        assert value == pytest.approx(((0.8 + 0.2) / 2.0) ** 2)


class TestExpectedTruthfulNashProduct:
    def test_u1_analytic_value(self):
        """For U(1) = Unif[-1,1]², E[((x+y)/2)² ; x+y ≥ 0] = 1/12.

        With s = x + y triangular on [-2, 2], the integral is
        ∫_0^2 (s/2)² (2−s)/4 ds = 1/12.
        """
        value = expected_truthful_nash_product(paper_distribution_u1(), grid_size=800)
        assert value == pytest.approx(1.0 / 12.0, rel=5e-3)

    def test_positive_for_paper_distributions(self):
        assert expected_truthful_nash_product(paper_distribution_u1()) > 0.0
        assert expected_truthful_nash_product(paper_distribution_u2()) > 0.0

    def test_all_negative_support_gives_zero(self):
        joint = JointUtilityDistribution(
            UniformUtilityDistribution(-2.0, -1.0), UniformUtilityDistribution(-2.0, -1.0)
        )
        assert expected_truthful_nash_product(joint) == pytest.approx(0.0)


class TestExpectedNashProduct:
    def test_monte_carlo_agreement(self):
        """The rectangle decomposition must agree with Monte-Carlo evaluation."""
        distribution = paper_distribution_u1()
        rng = np.random.default_rng(5)
        choices_x = random_choice_set(distribution.marginal_x, 12, rng)
        choices_y = random_choice_set(distribution.marginal_y, 12, rng)
        profile = StrategyProfile(
            strategy_x=truthful_like_strategy(choices_x),
            strategy_y=truthful_like_strategy(choices_y),
        )
        analytic = expected_nash_product(profile, distribution)
        samples = distribution.sample(rng, size=200_000)
        empirical = float(
            np.mean(
                [
                    nash_product_value(
                        ux, uy, profile.strategy_x(ux), profile.strategy_y(uy)
                    )
                    for ux, uy in samples
                ]
            )
        )
        assert analytic == pytest.approx(empirical, abs=5e-3)

    def test_truthful_quantized_strategy_close_to_truthful_bound(self):
        """With many quantized choices, the expected product approaches E[N|σ⊤]."""
        distribution = paper_distribution_u1()
        values = [v / 100.0 for v in range(-100, 101)]
        choices = ChoiceSet.from_values(values)
        profile = StrategyProfile(
            strategy_x=truthful_like_strategy(choices),
            strategy_y=truthful_like_strategy(choices),
        )
        quantized = expected_nash_product(profile, distribution)
        truthful = expected_truthful_nash_product(distribution)
        assert quantized == pytest.approx(truthful, rel=0.05)


class TestPriceOfDishonesty:
    def test_pod_of_equilibrium_in_unit_interval(self):
        distribution = paper_distribution_u1()
        rng = np.random.default_rng(11)
        game = BargainingGame(
            distribution_x=distribution.marginal_x,
            distribution_y=distribution.marginal_y,
            choices_x=random_choice_set(distribution.marginal_x, 20, rng),
            choices_y=random_choice_set(distribution.marginal_y, 20, rng),
        )
        profile = game.find_equilibrium()
        pod = price_of_dishonesty(profile, distribution)
        assert 0.0 <= pod <= 1.0

    def test_precomputed_truthful_value_is_honoured(self):
        distribution = paper_distribution_u1()
        rng = np.random.default_rng(12)
        choices = random_choice_set(distribution.marginal_x, 10, rng)
        profile = StrategyProfile(
            strategy_x=truthful_like_strategy(choices),
            strategy_y=truthful_like_strategy(choices),
        )
        direct = price_of_dishonesty(profile, distribution)
        cached = price_of_dishonesty(
            profile,
            distribution,
            truthful_value=expected_truthful_nash_product(distribution),
        )
        assert direct == pytest.approx(cached, abs=1e-9)

    def test_undefined_when_truthful_value_zero(self):
        joint = JointUtilityDistribution(
            UniformUtilityDistribution(-2.0, -1.0), UniformUtilityDistribution(-2.0, -1.0)
        )
        choices = ChoiceSet.from_values([-1.5])
        profile = StrategyProfile(
            strategy_x=truthful_like_strategy(choices),
            strategy_y=truthful_like_strategy(choices),
        )
        with pytest.raises(ValueError):
            price_of_dishonesty(profile, joint)

"""Property-based tests for the BOSCO mechanism (§V-D theorems)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bargaining.choices import random_choice_set
from repro.bargaining.distributions import (
    JointUtilityDistribution,
    UniformUtilityDistribution,
)
from repro.bargaining.efficiency import expected_truthful_nash_product
from repro.bargaining.mechanism import BoscoService
from repro.reference import (
    BargainingGame,
    compute_best_response,
    nash_product_value,
    price_of_dishonesty,
)


@st.composite
def bargaining_setups(draw):
    """Random joint uniform distributions and choice-set sizes."""
    low_x = draw(st.floats(min_value=-2.0, max_value=0.0))
    high_x = draw(st.floats(min_value=0.5, max_value=2.0))
    low_y = draw(st.floats(min_value=-2.0, max_value=0.0))
    high_y = draw(st.floats(min_value=0.5, max_value=2.0))
    size = draw(st.integers(min_value=3, max_value=15))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return low_x, high_x, low_y, high_y, size, seed


def build_game(low_x, high_x, low_y, high_y, size, seed):
    distribution = JointUtilityDistribution(
        marginal_x=UniformUtilityDistribution(low_x, high_x),
        marginal_y=UniformUtilityDistribution(low_y, high_y),
    )
    rng = np.random.default_rng(seed)
    game = BargainingGame(
        distribution_x=distribution.marginal_x,
        distribution_y=distribution.marginal_y,
        choices_x=random_choice_set(distribution.marginal_x, size, rng),
        choices_y=random_choice_set(distribution.marginal_y, size, rng),
    )
    return distribution, game


def find_equilibrium_or_skip(game):
    """Best-response dynamics can cycle for some random games (the game is
    not a potential game); such draws are skipped — the BOSCO service
    handles them by drawing a fresh choice set, which is tested separately."""
    from repro.bargaining.strategy import EquilibriumError

    try:
        return game.find_equilibrium()
    except EquilibriumError:
        assume(False)


class TestEquilibriumProperties:
    @given(bargaining_setups())
    @settings(max_examples=25, deadline=None)
    def test_equilibrium_exists_and_pod_is_bounded(self, setup):
        distribution, game = build_game(*setup)
        profile = find_equilibrium_or_skip(game)
        truthful = expected_truthful_nash_product(distribution, grid_size=200)
        if truthful <= 0.0:
            return
        pod = price_of_dishonesty(profile, distribution, truthful_value=truthful)
        assert 0.0 <= pod <= 1.0

    @given(bargaining_setups())
    @settings(max_examples=20, deadline=None)
    def test_individual_rationality_and_soundness_on_samples(self, setup):
        distribution, game = build_game(*setup)
        profile = find_equilibrium_or_skip(game)
        rng = np.random.default_rng(123)
        for ux, uy in distribution.sample(rng, size=50):
            claim_x = profile.strategy_x(float(ux))
            claim_y = profile.strategy_y(float(uy))
            if np.isinf(claim_x) or np.isinf(claim_y) or claim_x + claim_y < 0.0:
                continue
            transfer = (claim_x - claim_y) / 2.0
            # Strong individual rationality (Theorem 1).
            assert ux - transfer >= -1e-9
            assert uy + transfer >= -1e-9
            # Soundness (Theorem 2).
            assert ux + uy >= -1e-9

    @given(bargaining_setups())
    @settings(max_examples=20, deadline=None)
    def test_privacy_no_singleton_equilibrium_intervals(self, setup):
        _, game = build_game(*setup)
        profile = find_equilibrium_or_skip(game)
        for strategy in (profile.strategy_x, profile.strategy_y):
            for index in strategy.equilibrium_choice_indices():
                low, high = strategy.interval(index)
                assert high > low


class TestBestResponseProperties:
    @given(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=2, max_size=12
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_best_response_plays_envelope_maximum(self, values, data):
        """The threshold strategy returned by Algorithm 1 always achieves the
        pointwise maximum over the expected-utility lines."""
        from repro.bargaining.choices import ChoiceSet

        unique = sorted(set(round(v, 6) for v in values))
        if len(unique) < 2:
            return
        choices = ChoiceSet.from_values(unique)
        count = len(choices)
        raw_slopes = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=count - 1,
                max_size=count - 1,
            )
        )
        slopes = [0.0] + sorted(raw_slopes)
        intercepts = [0.0] + data.draw(
            st.lists(
                st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                min_size=count - 1,
                max_size=count - 1,
            )
        )
        strategy = compute_best_response(choices, slopes, intercepts)
        for u in np.linspace(-3.0, 3.0, 31):
            chosen = strategy.choice_index(float(u))
            achieved = slopes[chosen] * u + intercepts[chosen]
            best = max(slopes[i] * u + intercepts[i] for i in range(count))
            assert achieved == pytest.approx(best, abs=1e-6)


class TestNashProductValueProperties:
    @given(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_truthful_claims_never_beat_half_surplus_square(self, ux, uy):
        value = nash_product_value(ux, uy, ux, uy)
        if ux + uy >= 0.0:
            assert value == pytest.approx(((ux + uy) / 2.0) ** 2)
        else:
            assert value == 0.0


class TestServiceConfiguration:
    def test_configure_is_deterministic_for_fixed_seed(self):
        distribution = JointUtilityDistribution(
            marginal_x=UniformUtilityDistribution(-1.0, 1.0),
            marginal_y=UniformUtilityDistribution(-1.0, 1.0),
        )
        first = BoscoService(distribution, seed=31).configure(12, trials=4)
        second = BoscoService(distribution, seed=31).configure(12, trials=4)
        assert first.choices_x.values == second.choices_x.values
        assert first.price_of_dishonesty == pytest.approx(second.price_of_dishonesty)

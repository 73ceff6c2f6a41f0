"""Unit tests for the batched negotiation engine.

The heavyweight bit-exactness guarantees are exercised by the
property suite (``tests/property/test_negotiation_equivalence.py``);
here the engine's pieces are pinned against the per-instance reference
functions directly.
"""

import math
import warnings

import numpy as np
import pytest

from repro.bargaining.choices import ChoiceSet, random_choice_set
from repro.bargaining.distributions import (
    TruncatedNormalUtilityDistribution,
    paper_distribution_u1,
    paper_distribution_u2,
)
from repro.bargaining.engine import (
    GameBatch,
    GenericKernel,
    NegotiationEngine,
    UniformKernel,
    batched_claims,
    kernel_for,
)
from repro.bargaining.mechanism import BoscoService
from repro.bargaining.strategy import ThresholdStrategy
from repro.reference import (
    BargainingGame,
    choice_probabilities,
    compute_best_response,
    negotiate,
    response_lines,
    truthful_like_strategy,
)


@pytest.fixture(scope="module")
def engine():
    return NegotiationEngine()


def make_batch(size=8, num_choices=6, seed=0):
    distribution = paper_distribution_u1()
    rng = np.random.default_rng(seed)
    pairs = [
        (
            random_choice_set(distribution.marginal_x, num_choices, rng),
            random_choice_set(distribution.marginal_y, num_choices, rng),
        )
        for _ in range(size)
    ]
    return GameBatch.from_choice_sets(distribution, pairs)


class TestGameBatch:
    def test_packs_choice_values_with_cancel_column(self):
        batch = make_batch(size=3, num_choices=4)
        assert batch.choices_x.shape == (3, 5)
        assert np.all(np.isneginf(batch.choices_x[:, 0]))
        assert np.all(np.isfinite(batch.choices_x[:, 1:]))

    def test_rejects_empty_batches(self):
        with pytest.raises(ValueError, match="at least one instance"):
            GameBatch.from_choice_sets(paper_distribution_u1(), [])

    def test_rejects_mixed_cardinalities(self):
        distribution = paper_distribution_u1()
        rng = np.random.default_rng(0)
        pairs = [
            (
                random_choice_set(distribution.marginal_x, size, rng),
                random_choice_set(distribution.marginal_y, size, rng),
            )
            for size in (3, 4)
        ]
        with pytest.raises(ValueError, match="cardinality"):
            GameBatch.from_choice_sets(distribution, pairs)


class TestKernels:
    def test_uniform_distribution_gets_the_closed_form(self):
        assert isinstance(kernel_for(paper_distribution_u1().marginal_x), UniformKernel)

    def test_other_distributions_get_the_generic_fallback(self):
        normal = TruncatedNormalUtilityDistribution(0.0, 0.5, -1.0, 1.0)
        assert isinstance(kernel_for(normal), GenericKernel)

    @pytest.mark.parametrize("kernel_cls", [UniformKernel, GenericKernel])
    def test_kernels_match_the_scalar_methods_bitwise(self, kernel_cls):
        distribution = paper_distribution_u1().marginal_x
        kernel = kernel_cls(distribution)
        lows = np.array([-2.0, -1.0, -0.25, 0.0, 0.5, 0.9, 1.5])
        highs = np.array([-1.5, -0.5, -0.25, 0.75, 0.4, 2.0, 3.0])
        for low, high in zip(lows, highs):
            assert kernel.mass(np.array([low]), np.array([high]))[0] == (
                distribution.mass(low, high)
            )
            assert kernel.partial_mean(np.array([low]), np.array([high]))[0] == (
                distribution.partial_mean(low, high)
            )

    def test_generic_kernel_handles_truncated_normal(self):
        normal = TruncatedNormalUtilityDistribution(0.1, 0.4, -1.0, 1.0)
        kernel = GenericKernel(normal)
        low = np.array([-0.5, 0.0])
        high = np.array([0.5, 0.2])
        for position in range(2):
            assert kernel.mass(low, high)[position] == normal.mass(
                float(low[position]), float(high[position])
            )


class TestBatchedPrimitives:
    def test_choice_probabilities_match_reference(self, engine):
        batch = make_batch(size=5, num_choices=7, seed=3)
        kernel = kernel_for(batch.distribution.marginal_y)
        strategies = [truthful_like_strategy(s) for s in batch.sets_y]
        thresholds = np.array([s.thresholds for s in strategies])
        batched = engine.choice_probabilities(thresholds, kernel)
        for row, strategy in enumerate(strategies):
            reference = choice_probabilities(strategy, batch.distribution.marginal_y)
            assert list(batched[row]) == reference

    def test_response_lines_match_reference(self, engine):
        batch = make_batch(size=5, num_choices=7, seed=4)
        kernel = kernel_for(batch.distribution.marginal_y)
        strategies = [truthful_like_strategy(s) for s in batch.sets_y]
        thresholds = np.array([s.thresholds for s in strategies])
        probabilities = engine.choice_probabilities(thresholds, kernel)
        slopes, intercepts = engine.response_lines(
            batch.choices_x, batch.choices_y, probabilities
        )
        for row in range(len(batch)):
            reference_slopes, reference_intercepts = response_lines(
                batch.sets_x[row], batch.sets_y[row], list(probabilities[row])
            )
            assert list(slopes[row]) == reference_slopes
            assert list(intercepts[row]) == reference_intercepts

    def test_overflowing_masked_claim_gap_matches_reference(self, engine):
        # (−1.75e308, 1.7e308) does not conclude, but its ``opp − own``
        # overflows: the masked term must be an exact, silent 0.0 as in
        # the scalar loop, not ``∞ · 0.0 = NaN``.
        own = ChoiceSet((-math.inf, -1.75e308, 0.0))
        opponent = ChoiceSet((-math.inf, 0.0, 1.7e308))
        probabilities = [0.0, 0.5, 0.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slopes, intercepts = engine.response_lines(
                np.array([own.values]), np.array([opponent.values]), np.array([probabilities])
            )
        reference_slopes, reference_intercepts = response_lines(own, opponent, probabilities)
        assert list(slopes[0]) == reference_slopes
        assert list(intercepts[0]) == reference_intercepts == [0.0, 0.0, 4.25e307]

    def test_best_responses_match_reference(self, engine):
        batch = make_batch(size=6, num_choices=5, seed=5)
        kernel = kernel_for(batch.distribution.marginal_y)
        strategies = [truthful_like_strategy(s) for s in batch.sets_y]
        thresholds = np.array([s.thresholds for s in strategies])
        batched = engine.best_responses(
            batch.choices_x, batch.choices_y, thresholds, kernel
        )
        for row in range(len(batch)):
            game = BargainingGame(
                distribution_x=batch.distribution.marginal_x,
                distribution_y=batch.distribution.marginal_y,
                choices_x=batch.sets_x[row],
                choices_y=batch.sets_y[row],
            )
            reference = game.best_response("x", strategies[row])
            assert tuple(batched[row]) == reference.thresholds

    def test_overflowing_crossing_is_silent_like_the_scalar_path(self, engine):
        # A subnormal slope gap overflows the crossing to +inf; the
        # scalar Algorithm 1 returns that silently, so must the batch.
        slopes, intercepts = [0.0, 5e-324], [1.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = engine.envelope_thresholds(
                np.array([slopes]), np.array([intercepts])
            )
            reference = compute_best_response(
                ChoiceSet((float("-inf"), 0.5)), slopes, intercepts
            )
        assert tuple(batched[0]) == reference.thresholds == (float("-inf"), float("inf"))


class TestSolve:
    @pytest.mark.parametrize("tolerance", [-1e-12, float("nan"), float("inf")])
    def test_rejects_tolerances_delta_cannot_test(self, engine, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            engine.solve(make_batch(size=2, num_choices=4), tolerance=tolerance)

    def test_solves_a_batch_and_profiles_verify(self, engine):
        batch = make_batch(size=10, num_choices=6, seed=6)
        equilibria = engine.solve(batch)
        assert equilibria.converged.any()
        for index in np.nonzero(equilibria.converged)[0][:3]:
            profile = equilibria.profile(batch, int(index))
            game = BargainingGame(
                distribution_x=batch.distribution.marginal_x,
                distribution_y=batch.distribution.marginal_y,
                choices_x=batch.sets_x[index],
                choices_y=batch.sets_y[index],
            )
            assert game.is_equilibrium(profile)

    def test_profile_of_unconverged_instance_raises(self, engine):
        batch = make_batch(size=4, num_choices=5, seed=7)
        equilibria = engine.solve(batch)
        equilibria.converged[2] = False
        with pytest.raises(ValueError, match="did not converge"):
            equilibria.profile(batch, 2)

    def test_diagnostics_are_populated(self, engine):
        batch = make_batch(size=4, num_choices=5, seed=8)
        equilibria = engine.solve(batch)
        assert (equilibria.iterations[equilibria.converged] >= 1).all()
        assert (equilibria.start_index[equilibria.converged] >= 0).all()

    def test_subbatch_rows_are_bitwise_independent(self, engine):
        batch = make_batch(size=6, num_choices=5, seed=9)
        full = engine.solve(batch)
        sub = GameBatch(
            distribution=batch.distribution,
            choices_x=batch.choices_x[2:4],
            choices_y=batch.choices_y[2:4],
            sets_x=batch.sets_x[2:4],
            sets_y=batch.sets_y[2:4],
        )
        partial = engine.solve(sub)
        assert np.array_equal(full.thresholds_x[2:4], partial.thresholds_x, equal_nan=True)
        assert np.array_equal(full.thresholds_y[2:4], partial.thresholds_y, equal_nan=True)


class TestBatchedClaims:
    def test_matches_the_scalar_strategy_calls(self):
        choices = ChoiceSet.from_values([-0.5, 0.1, 0.8])
        strategy = ThresholdStrategy(
            choices=choices, thresholds=(float("-inf"), -0.25, 0.3, 0.6)
        )
        utilities = np.array([-1.0, -0.25, 0.0, 0.3, 0.59, 0.6, 2.0])
        claims = batched_claims(strategy, utilities)
        assert list(claims) == [strategy(float(u)) for u in utilities]

    def test_negotiate_many_matches_scalar_negotiations(self):
        service = BoscoService(paper_distribution_u1(), seed=11)
        information = service.configure(8, trials=4)
        rng = np.random.default_rng(0)
        pairs = information.distribution.sample(rng, size=50)
        outcomes = BoscoService.negotiate_many(
            information, list(pairs[:, 0]), list(pairs[:, 1])
        )
        for (utility_x, utility_y), outcome in zip(pairs, outcomes):
            assert outcome == negotiate(
                information, float(utility_x), float(utility_y)
            )

    @pytest.mark.parametrize("distribution", [paper_distribution_u1, paper_distribution_u2])
    def test_negotiate_many_matches_at_the_mechanism_property_scale(self, distribution):
        # The configuration and samples of the §V-D property tests in
        # tests/bargaining/test_mechanism.py, which run the reference.
        information = BoscoService(distribution(), seed=4).configure(20, trials=8)
        pairs = information.distribution.sample(np.random.default_rng(9), size=400)
        outcomes = BoscoService.negotiate_many(
            information, list(pairs[:, 0]), list(pairs[:, 1])
        )
        assert outcomes == [
            negotiate(information, float(utility_x), float(utility_y))
            for utility_x, utility_y in pairs
        ]

    def test_negotiate_many_rejects_mismatched_lengths(self):
        service = BoscoService(paper_distribution_u1(), seed=11)
        information = service.configure(5, trials=2)
        with pytest.raises(ValueError, match="one utility per party"):
            BoscoService.negotiate_many(information, [0.1], [0.2, 0.3])

    def test_negotiate_many_of_nothing_is_empty(self):
        service = BoscoService(paper_distribution_u1(), seed=11)
        information = service.configure(5, trials=2)
        assert BoscoService.negotiate_many(information, [], []) == []

"""Engine-vs-reference equivalence for the batched negotiation stack.

The :class:`~repro.bargaining.engine.NegotiationEngine` is contracted to
be **bit-identical** to the per-trial oracles of :mod:`repro.reference`
— that is what keeps seeded Fig. 2 tables and marketplace traces
byte-stable.  These property tests drive both paths from identical
seeds across random distributions, cardinalities, and trial counts,
and compare results with ``==``, never ``approx`` (extending the
core-vs-reference pattern of ``test_core_equivalence.py`` to the
bargaining layer).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.api import NegotiateRequest, Session
from repro.bargaining.choices import random_choice_set
from repro.bargaining.distributions import (
    JointUtilityDistribution,
    TruncatedNormalUtilityDistribution,
    UniformUtilityDistribution,
    paper_distribution_u1,
    paper_distribution_u2,
)
from repro.bargaining.engine import GameBatch, NegotiationEngine
from repro.bargaining.game import BargainingGame, EquilibriumError
from repro.bargaining.mechanism import BoscoService
from repro.experiments.fig2_pod import Fig2Config, Fig2Row, run_fig2


@st.composite
def joint_distributions(draw):
    low_x = draw(st.floats(min_value=-2.0, max_value=-0.1))
    high_x = draw(st.floats(min_value=0.5, max_value=2.0))
    low_y = draw(st.floats(min_value=-2.0, max_value=-0.1))
    high_y = draw(st.floats(min_value=0.5, max_value=2.0))
    return JointUtilityDistribution(
        marginal_x=UniformUtilityDistribution(low_x, high_x),
        marginal_y=UniformUtilityDistribution(low_y, high_y),
    )


class TestEquilibriumEquivalence:
    @given(
        distribution=joint_distributions(),
        num_choices=st.integers(min_value=2, max_value=12),
        batch_size=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_equilibria_match_the_reference_bitwise(
        self, distribution, num_choices, batch_size, seed
    ):
        rng = np.random.default_rng(seed)
        pairs = [
            (
                random_choice_set(distribution.marginal_x, num_choices, rng),
                random_choice_set(distribution.marginal_y, num_choices, rng),
            )
            for _ in range(batch_size)
        ]
        batch = GameBatch.from_choice_sets(distribution, pairs)
        equilibria = NegotiationEngine().solve(batch)
        for index, (choices_x, choices_y) in enumerate(pairs):
            game = BargainingGame(
                distribution_x=distribution.marginal_x,
                distribution_y=distribution.marginal_y,
                choices_x=choices_x,
                choices_y=choices_y,
            )
            try:
                reference = game.find_equilibrium()
            except EquilibriumError:
                assert not equilibria.converged[index]
                continue
            assert equilibria.converged[index]
            profile = equilibria.profile(batch, index)
            assert profile.strategy_x.thresholds == reference.strategy_x.thresholds
            assert profile.strategy_y.thresholds == reference.strategy_y.thresholds


class TestServiceEquivalence:
    @given(
        distribution=joint_distributions(),
        num_choices=st.integers(min_value=2, max_value=10),
        trials=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_pod_statistics_are_identical(
        self, distribution, num_choices, trials, seed
    ):
        rng = np.random.default_rng(seed)
        service = BoscoService(distribution, seed=seed)
        try:
            expected = reference.pod_statistics(distribution, rng, num_choices, trials)
        except EquilibriumError:
            with pytest.raises(EquilibriumError):
                service.pod_statistics(num_choices, trials=trials)
            assert service.skipped_trials == trials
            return
        assert service.pod_statistics(num_choices, trials=trials) == expected
        assert service.skipped_trials == expected["skipped_trials"]

    @given(
        num_choices=st.integers(min_value=2, max_value=10),
        trials=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_configure_picks_the_identical_mechanism(self, num_choices, trials, seed):
        distribution = paper_distribution_u1()
        expected = reference.configure(
            distribution, np.random.default_rng(seed), num_choices, trials
        )
        actual = BoscoService(distribution, seed=seed).configure(
            num_choices, trials=trials
        )
        assert actual.choices_x.values == expected.choices_x.values
        assert actual.choices_y.values == expected.choices_y.values
        assert (
            actual.equilibrium.strategy_x.thresholds
            == expected.equilibrium.strategy_x.thresholds
        )
        assert (
            actual.equilibrium.strategy_y.thresholds
            == expected.equilibrium.strategy_y.thresholds
        )
        assert actual.price_of_dishonesty == expected.price_of_dishonesty
        assert actual.expected_nash_product == expected.expected_nash_product

    def test_generic_kernel_distributions_are_identical_too(self):
        # Non-uniform marginals take the GenericKernel fallback, which
        # must be just as exact as the closed-form uniform path.
        distribution = JointUtilityDistribution(
            marginal_x=TruncatedNormalUtilityDistribution(0.1, 0.5, -1.0, 1.0),
            marginal_y=TruncatedNormalUtilityDistribution(-0.1, 0.4, -1.0, 1.0),
        )
        service = BoscoService(distribution, seed=5)
        assert service.pod_statistics(6, trials=6) == reference.pod_statistics(
            distribution, np.random.default_rng(5), 6, 6
        )


class TestFig2Equivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_fig2_tables_are_byte_identical_across_backends(self, seed):
        choice_counts = (5, 12)
        rows = []
        for name, distribution in (
            ("U(1)", paper_distribution_u1()),
            ("U(2)", paper_distribution_u2()),
        ):
            # One RNG per distribution, every W drawn from it in order —
            # the draws of run_fig2's one service per distribution.
            rng = np.random.default_rng(seed)
            for num_choices in choice_counts:
                statistics = reference.pod_statistics(distribution, rng, num_choices, 6)
                rows.append(
                    Fig2Row(
                        distribution=name,
                        num_choices=num_choices,
                        min_pod=statistics["min"],
                        mean_pod=statistics["mean"],
                        mean_equilibrium_choices=statistics["mean_equilibrium_choices"],
                    )
                )
        result = run_fig2(Fig2Config(choice_counts=choice_counts, trials=6, seed=seed))
        assert result.rows == rows


class TestSessionNegotiateEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_negotiate_matches_a_fresh_service(self, seed):
        request = NegotiateRequest(num_choices=8, trials=6, seed=seed)
        result = Session().negotiate(request)
        distribution = request.joint_distribution()
        statistics = BoscoService(distribution, seed=seed).pod_statistics(8, trials=6)
        assert result.min_pod == statistics["min"]
        assert result.mean_pod == statistics["mean"]
        assert result.max_pod == statistics["max"]
        assert result.mean_equilibrium_choices == statistics["mean_equilibrium_choices"]
        assert result.converged_trials == statistics["trials"]
        assert result.skipped_trials == statistics["skipped_trials"]
        best = BoscoService(distribution, seed=seed).configure(8, trials=6)
        assert result.best_expected_nash_product == best.expected_nash_product

"""Unit tests for the BOSCO service and its mechanism properties (§V-D)."""

import numpy as np
import pytest

from repro.bargaining.distributions import paper_distribution_u1, paper_distribution_u2
from repro.bargaining.mechanism import BoscoService


@pytest.fixture(scope="module")
def configured_mechanism():
    service = BoscoService(paper_distribution_u1(), seed=4)
    information = service.configure(20, trials=8)
    return service, information


class TestConfiguration:
    def test_configure_returns_best_trial(self, configured_mechanism):
        _, information = configured_mechanism
        assert 0.0 <= information.price_of_dishonesty <= 1.0
        assert information.expected_nash_product > 0.0

    def test_published_profile_verifies_as_equilibrium(self, configured_mechanism):
        _, information = configured_mechanism
        assert information.verify_equilibrium()

    def test_choice_sets_have_requested_cardinality(self, configured_mechanism):
        _, information = configured_mechanism
        assert len(information.choices_x.finite_values) == 20
        assert len(information.choices_y.finite_values) == 20

    def test_invalid_trials_rejected(self):
        service = BoscoService(paper_distribution_u1(), seed=0)
        with pytest.raises(ValueError):
            service.configure(10, trials=0)

    def test_invalid_construction_mode_rejected(self):
        with pytest.raises(ValueError):
            BoscoService(paper_distribution_u1(), choice_construction="magic")

    def test_quantile_construction_also_works(self):
        service = BoscoService(
            paper_distribution_u2(), seed=0, choice_construction="quantile"
        )
        information = service.configure(15, trials=1)
        assert 0.0 <= information.price_of_dishonesty <= 1.0

    def test_pod_statistics(self):
        service = BoscoService(paper_distribution_u1(), seed=5)
        stats = service.pod_statistics(15, trials=10)
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["trials"] == 10
        assert stats["mean_equilibrium_choices"] >= 1.0


class TestMechanismProperties:
    """The §V-D theorems, checked on sampled true utilities."""

    def _sample_outcomes(self, information, count=400, seed=9):
        rng = np.random.default_rng(seed)
        pairs = information.distribution.sample(rng, size=count)
        return [
            BoscoService.negotiate(information, float(ux), float(uy)) for ux, uy in pairs
        ]

    def test_budget_balance(self, configured_mechanism):
        """What one party pays, the other receives — no money is created or lost."""
        _, information = configured_mechanism
        for outcome in self._sample_outcomes(information):
            if outcome.concluded:
                total = outcome.post_utility_x + outcome.post_utility_y
                assert total == pytest.approx(
                    outcome.true_utility_x + outcome.true_utility_y
                )

    def test_strong_individual_rationality(self, configured_mechanism):
        """Theorem 1: after-negotiation utility is non-negative in every outcome."""
        _, information = configured_mechanism
        for outcome in self._sample_outcomes(information):
            assert outcome.post_utility_x >= -1e-9
            assert outcome.post_utility_y >= -1e-9

    def test_soundness(self, configured_mechanism):
        """Theorem 2: a concluded agreement always has non-negative true surplus."""
        _, information = configured_mechanism
        for outcome in self._sample_outcomes(information):
            if outcome.concluded:
                assert outcome.true_utility_x + outcome.true_utility_y >= -1e-9

    def test_pod_in_unit_interval(self, configured_mechanism):
        """Theorem 3."""
        _, information = configured_mechanism
        assert 0.0 <= information.price_of_dishonesty <= 1.0

    def test_privacy_no_singleton_intervals(self, configured_mechanism):
        """Theorem 4: no choice maps back to a single possible utility."""
        _, information = configured_mechanism
        for strategy in (
            information.equilibrium.strategy_x,
            information.equilibrium.strategy_y,
        ):
            for index in strategy.equilibrium_choice_indices():
                low, high = strategy.interval(index)
                assert high > low

    def test_negotiation_transfer_is_half_the_claim_difference(self, configured_mechanism):
        _, information = configured_mechanism
        outcome = BoscoService.negotiate(information, 0.8, 0.6)
        if outcome.concluded:
            assert outcome.transfer_x_to_y == pytest.approx(
                (outcome.claim_x - outcome.claim_y) / 2.0
            )

    def test_hopeless_negotiation_is_cancelled(self, configured_mechanism):
        """Two strongly negative utilities must never conclude."""
        _, information = configured_mechanism
        outcome = BoscoService.negotiate(information, -0.95, -0.95)
        assert not outcome.concluded
        assert outcome.post_utility_x == 0.0
        assert outcome.nash_product == 0.0


class TestFig2Shape:
    def test_more_choices_do_not_hurt_the_best_pod(self):
        """The headline Fig. 2 trend: the minimum PoD shrinks (or at least
        does not grow) when the mechanism may use more choices."""
        service = BoscoService(paper_distribution_u1(), seed=21)
        few = service.pod_statistics(5, trials=12)["min"]
        many = service.pod_statistics(40, trials=12)["min"]
        assert many <= few + 0.05


class TestBackends:
    def test_quantile_construction_on_the_batched_backend(self):
        service = BoscoService(
            paper_distribution_u1(), seed=0, choice_construction="quantile"
        )
        information = service.configure(12, trials=1)
        assert information.verify_equilibrium()


class TestSkippedTrialAccounting:
    def test_counter_starts_at_zero_and_accumulates(self):
        service = BoscoService(paper_distribution_u1(), seed=5)
        assert service.skipped_trials == 0
        stats = service.pod_statistics(10, trials=8)
        assert service.skipped_trials == stats["skipped_trials"]
        before = service.skipped_trials
        service.pod_statistics(10, trials=4)
        assert service.skipped_trials >= before

    def test_statistics_report_skipped_trials(self):
        service = BoscoService(paper_distribution_u1(), seed=5)
        stats = service.pod_statistics(12, trials=6)
        assert stats["skipped_trials"] == 6 - stats["trials"]
        assert stats["skipped_trials"] >= 0.0


class TestTrialCohorts:
    """The packed-cohort entry point behind session/serve coalescing."""

    def test_draw_trial_pairs_is_seed_deterministic(self):
        from repro.bargaining.mechanism import draw_trial_pairs

        distribution = paper_distribution_u1()
        first = draw_trial_pairs(distribution, 6, 3, seed=5)
        again = draw_trial_pairs(distribution, 6, 3, seed=5)
        assert len(first) == 3
        for (ax, ay), (bx, by) in zip(first, again):
            assert ax.finite_values == bx.finite_values
            assert ay.finite_values == by.finite_values

    def test_packed_cohorts_are_bit_identical_to_solo_solves(self):
        from repro.bargaining.mechanism import draw_trial_pairs, solve_trial_cohorts

        distribution = paper_distribution_u1()
        cohorts = [
            draw_trial_pairs(distribution, 8, trials, seed=seed)
            for trials, seed in ((3, 1), (5, 2), (2, 9))
        ]
        packed = solve_trial_cohorts(distribution, cohorts)
        assert [len(s.batch) for s in packed] == [3, 5, 2]
        for cohort, solved in zip(cohorts, packed):
            solo = solve_trial_cohorts(distribution, [cohort])[0]
            assert np.array_equal(solved.pods, solo.pods, equal_nan=True)
            assert np.array_equal(
                solved.nash_products, solo.nash_products, equal_nan=True
            )
            assert np.array_equal(solved.equilibria.converged, solo.equilibria.converged)

    def test_empty_cohort_list_is_empty(self):
        from repro.bargaining.mechanism import solve_trial_cohorts

        assert solve_trial_cohorts(paper_distribution_u1(), []) == []

"""Unit tests for the flow-volume-target optimization (§IV-A, Eq. 9)."""

import pytest

from repro.agreements import (
    AgreementScenario,
    SegmentTraffic,
    joint_utilities,
)
from repro.agreements.agreement import PathSegment
from repro.economics import FlowVector
from repro.optimization.flow_volume import SegmentTargets, optimize_flow_volume_targets
from repro.topology import AS_A, AS_B, AS_D, AS_E


class TestFlowVolumeOptimization:
    def test_figure1_optimum_is_pinned(self, figure1_scenario, figure1_businesses):
        """The optimum, pinned bit for bit: caching utility evaluations must not move it."""
        result = optimize_flow_volume_targets(
            figure1_scenario, figure1_businesses, restarts=3, seed=1
        )
        assert (result.utility_x, result.utility_y, result.concluded) == (
            4.448251579050357,
            4.051592510801271,
            True,
        )
        assert result.targets == (
            SegmentTargets(path=(4, 5, 2), rerouted_volume=0.0, attracted_volume=6.498552262907939),
            SegmentTargets(path=(4, 5, 6), rerouted_volume=4.0, attracted_volume=4.0),
            SegmentTargets(path=(5, 4, 1), rerouted_volume=0.0, attracted_volume=10.0),
        )

    def test_both_parties_end_up_nonnegative(self, figure1_scenario, figure1_businesses):
        result = optimize_flow_volume_targets(
            figure1_scenario, figure1_businesses, restarts=3, seed=1
        )
        assert result.utility_x >= -1e-6
        assert result.utility_y >= -1e-6

    def test_concluded_on_figure1_scenario(self, figure1_scenario, figure1_businesses):
        result = optimize_flow_volume_targets(
            figure1_scenario, figure1_businesses, restarts=3, seed=1
        )
        assert result.concluded
        assert result.nash_product > 0.0

    def test_targets_respect_demand_limits(self, figure1_scenario, figure1_businesses):
        result = optimize_flow_volume_targets(
            figure1_scenario, figure1_businesses, restarts=3, seed=1
        )
        for target, original in zip(result.targets, figure1_scenario.segments):
            max_attracted = sum(
                original.attracted_limit(c)
                for c in set(original.attracted) | set(original.attracted_limits)
            )
            assert target.attracted_volume <= max_attracted + 1e-6
            assert target.rerouted_volume <= original.rerouted_volume + 1e-6

    def test_allowance_covers_attracted_traffic(self, figure1_scenario, figure1_businesses):
        """Constraint (II): the total allowance accommodates the attracted traffic."""
        result = optimize_flow_volume_targets(
            figure1_scenario, figure1_businesses, restarts=3, seed=1
        )
        for target in result.targets:
            assert target.total_allowance >= target.attracted_volume - 1e-9

    def test_optimized_utilities_match_scenario_reevaluation(
        self, figure1_scenario, figure1_businesses
    ):
        result = optimize_flow_volume_targets(
            figure1_scenario, figure1_businesses, restarts=3, seed=1
        )
        utilities = joint_utilities(result.scenario, figure1_businesses)
        assert utilities[AS_D] == pytest.approx(result.utility_x, abs=1e-9)
        assert utilities[AS_E] == pytest.approx(result.utility_y, abs=1e-9)

    def test_beats_or_matches_raw_scenario_nash_product(
        self, figure1_scenario, figure1_businesses
    ):
        """The optimum cannot be worse than the (infeasible) raw scenario clipped
        to feasibility — in the fixture the raw scenario has a negative Nash
        product, so any feasible point is an improvement."""
        raw = joint_utilities(figure1_scenario, figure1_businesses)
        raw_product = raw[AS_D] * raw[AS_E]
        result = optimize_flow_volume_targets(
            figure1_scenario, figure1_businesses, restarts=3, seed=1
        )
        assert result.nash_product >= raw_product

    def test_empty_scenario_cannot_conclude(self, figure1_agreement, figure1_businesses):
        scenario = AgreementScenario(agreement=figure1_agreement)
        result = optimize_flow_volume_targets(scenario, figure1_businesses)
        assert not result.concluded
        assert result.targets == ()

    def test_unviable_agreement_collapses_to_zero(
        self, figure1_agreement, figure1_businesses
    ):
        """§IV-C: when one party only loses and nothing can compensate it
        within the agreement, the only feasible targets are (near) zero."""
        scenario = AgreementScenario(
            agreement=figure1_agreement,
            segments=[
                # D sends traffic over E towards B, but none of it is rerouted
                # from a provider and no new customer traffic is attracted:
                # E pays for forwarding and D gains nothing.
                SegmentTraffic(
                    segment=PathSegment(beneficiary=AS_D, partner=AS_E, target=AS_B),
                    rerouted={None: 20.0},
                )
            ],
            baseline={AS_D: FlowVector({AS_A: 30.0}), AS_E: FlowVector({AS_B: 30.0})},
        )
        result = optimize_flow_volume_targets(scenario, figure1_businesses, restarts=3)
        total_allowance = sum(t.total_allowance for t in result.targets)
        assert total_allowance == pytest.approx(0.0, abs=1e-3)
        assert not result.concluded

"""Integration tests crossing subsystem boundaries.

These tests exercise the full pipeline the paper describes: build a
topology, identify candidate mutuality-based agreements, evaluate and
optimize them economically, negotiate them through BOSCO, apply them to
a path-aware network, and measure the resulting path-diversity gains.
"""

import numpy as np
import pytest

from repro.agreements import (
    AgreementScenario,
    SegmentTraffic,
    enumerate_mutuality_agreements,
    joint_utilities,
)
from repro.bargaining import BoscoService, JointUtilityDistribution, UniformUtilityDistribution
from repro.economics import ENDHOSTS, default_business_models
from repro.optimization import compare_methods, negotiate_cash_agreement
from repro.paths import analyze_path_diversity, build_ma_path_index, grc_length3_paths
from repro.reference import negotiate
from repro.routing import BGPSimulator, ForwardingEngine, Packet, PathAwareNetwork
from repro.routing.policies import gao_rexford_policies
from repro.topology import AS_A, AS_B, AS_D, AS_E, figure1_topology


class TestAgreementLifecycle:
    """From the Fig. 1 topology to a negotiated, deployed agreement."""

    def test_full_figure1_lifecycle(self, figure1_scenario, figure1_businesses):
        graph = figure1_topology()
        agreement = figure1_scenario.agreement

        # 1. The agreement violates the GRC, so it is only deployable in a PAN.
        assert not agreement.is_grc_conforming(graph)

        # 2. Economically, D gains and E loses, but the joint surplus is positive.
        utilities = joint_utilities(figure1_scenario, figure1_businesses)
        assert utilities[AS_D] > 0 > utilities[AS_E]
        cash = negotiate_cash_agreement(figure1_scenario, figure1_businesses)
        assert cash.concluded and cash.post_utility_y >= 0.0

        # 3. Deploying the agreement authorizes the new segments in the PAN.
        network = PathAwareNetwork(graph)
        network.authorize_grc_segments()
        assert not network.is_valid_path((AS_D, AS_E, AS_B))
        network.apply_agreement(agreement)
        assert network.is_valid_path((AS_D, AS_E, AS_B))

        # 4. Packets embedded with the new path are forwarded loop-free.
        engine = ForwardingEngine(network)
        result = engine.forward(Packet(path=(AS_D, AS_E, AS_B)))
        assert result.delivered
        assert len(set(result.traversed)) == len(result.traversed)

        # 5. Meanwhile BGP with GRC policies still converges on the same topology
        #    (the agreement lives purely in the PAN's segment authorization).
        outcome = BGPSimulator(
            graph=graph, destination=AS_A, policies=gao_rexford_policies(graph)
        ).run()
        assert outcome.converged

    def test_bosco_negotiation_of_estimated_utilities(
        self, figure1_scenario, figure1_businesses
    ):
        """Negotiate the Fig. 1 agreement through BOSCO with utility
        distributions centred on the true (scenario-derived) utilities."""
        utilities = joint_utilities(figure1_scenario, figure1_businesses)
        scale = max(abs(u) for u in utilities.values())
        distribution = JointUtilityDistribution(
            marginal_x=UniformUtilityDistribution(-scale, 2.0 * scale),
            marginal_y=UniformUtilityDistribution(-scale, 2.0 * scale),
        )
        service = BoscoService(distribution, seed=17)
        information = service.configure(25, trials=5)
        outcome = negotiate(
            information, utilities[AS_D], utilities[AS_E]
        )
        # The joint surplus is positive, so soundness permits conclusion and
        # individual rationality guarantees neither party is worse off.
        assert outcome.post_utility_x >= -1e-9
        assert outcome.post_utility_y >= -1e-9
        if outcome.concluded:
            assert outcome.post_utility_x + outcome.post_utility_y == pytest.approx(
                utilities[AS_D] + utilities[AS_E]
            )


class TestTopologyWideWorkflow:
    def test_enumerate_evaluate_and_measure_diversity(self, small_topology):
        graph = small_topology.graph
        agreements = list(enumerate_mutuality_agreements(graph))
        assert agreements

        # Economic screening of a handful of agreements with synthetic traffic.
        businesses = default_business_models(graph)
        rng = np.random.default_rng(3)
        concluded = []
        for agreement in agreements[:10]:
            segments = []
            for segment in agreement.all_segments():
                segments.append(
                    SegmentTraffic(
                        segment=segment,
                        rerouted={None: float(rng.uniform(0.0, 5.0))},
                        attracted={ENDHOSTS: float(rng.uniform(0.0, 3.0))},
                    )
                )
            scenario = AgreementScenario(agreement=agreement, segments=segments)
            comparison = compare_methods(scenario, businesses, restarts=1, seed=1)
            if comparison.cash_concluded:
                concluded.append(agreement)
        assert concluded, "at least some agreements should be economically viable"

        # Path-diversity effect of all agreements.
        diversity = analyze_path_diversity(
            graph, index=build_ma_path_index(agreements), sample_size=30, seed=2
        )
        assert diversity.path_cdf("MA").mean >= diversity.path_cdf("GRC").mean

    def test_pan_authorization_matches_path_index(self, small_topology):
        """Paths reported by the analysis are exactly the ones the PAN forwards."""
        graph = small_topology.graph
        agreements = list(enumerate_mutuality_agreements(graph))
        index = build_ma_path_index(agreements)
        network = PathAwareNetwork(graph)
        network.authorize_grc_segments()
        for agreement in agreements:
            network.apply_agreement(agreement)
        engine = ForwardingEngine(network)

        rng = np.random.default_rng(9)
        sources = rng.choice(sorted(graph.ases), size=10, replace=False)
        for source in (int(s) for s in sources):
            ma_paths = list(index.all_paths(source))[:20]
            grc_paths = list(grc_length3_paths(graph, source))[:20]
            for path in ma_paths + grc_paths:
                result = engine.forward(Packet(path=path))
                assert result.delivered, f"path {path} should be forwardable"

"""Unit tests for mutuality-based agreements and their enumeration (§VI)."""

import pytest

from repro.agreements import (
    AgreementError,
    agreements_involving,
    enumerate_mutuality_agreements,
    figure1_mutuality_agreement,
    mutuality_agreement,
)
from repro.topology import (
    AS_A,
    AS_B,
    AS_C,
    AS_D,
    AS_E,
    AS_F,
    FIGURE1_NAMES,
    figure1_topology,
)


class TestMutualityAgreement:
    def test_figure1_maximal_agreement(self):
        """The maximal MA between D and E offers providers and peers."""
        graph = figure1_topology()
        agreement = mutuality_agreement(graph, AS_D, AS_E)
        assert agreement is not None
        assert agreement.offer_by(AS_D).providers == frozenset({AS_A})
        assert agreement.offer_by(AS_D).peers == frozenset({AS_C})
        assert agreement.offer_by(AS_E).providers == frozenset({AS_B})
        assert agreement.offer_by(AS_E).peers == frozenset({AS_F})

    def test_paper_agreement_fixture_matches_eq6(self):
        graph = figure1_topology()
        agreement = figure1_mutuality_agreement(graph)
        assert agreement.notation(FIGURE1_NAMES) == "[D(↑{A});E(↑{B},→{F})]"

    def test_non_peers_rejected(self):
        graph = figure1_topology()
        with pytest.raises(AgreementError):
            mutuality_agreement(graph, AS_A, AS_D)

    def test_unknown_as_rejected(self):
        graph = figure1_topology()
        with pytest.raises(AgreementError):
            mutuality_agreement(graph, AS_D, 999)

    def test_customers_of_beneficiary_excluded(self):
        """An AS is not offered access to ASes that are already its customers."""
        graph = figure1_topology()
        # Make F a customer of D, then the D–E agreement must not offer F to D.
        graph = graph.copy()
        graph.remove_link(AS_E, AS_F)
        graph.add_provider_customer(AS_D, AS_F)
        graph.add_peering(AS_E, 99)
        agreement = mutuality_agreement(graph, AS_D, AS_E)
        assert AS_F not in agreement.offer_by(AS_E).all_targets

    def test_provider_and_peer_toggles(self):
        graph = figure1_topology()
        only_peers = mutuality_agreement(graph, AS_D, AS_E, include_providers=False)
        assert only_peers.offer_by(AS_D).providers == frozenset()
        assert only_peers.offer_by(AS_D).peers == frozenset({AS_C})
        only_providers = mutuality_agreement(graph, AS_D, AS_E, include_peers=False)
        assert only_providers.offer_by(AS_E).peers == frozenset()
        assert only_providers.offer_by(AS_E).providers == frozenset({AS_B})

    def test_empty_agreement_returns_none(self):
        from repro.topology import ASGraph

        graph = ASGraph()
        graph.add_peering(1, 2)
        assert mutuality_agreement(graph, 1, 2) is None

    def test_resulting_agreement_validates(self):
        graph = figure1_topology()
        agreement = mutuality_agreement(graph, AS_D, AS_E)
        agreement.validate_against(graph)

    def test_mutuality_agreements_violate_grc(self):
        graph = figure1_topology()
        agreement = mutuality_agreement(graph, AS_D, AS_E)
        assert not agreement.is_grc_conforming(graph)


class TestEnumeration:
    def test_one_agreement_per_productive_peering_link(self):
        graph = figure1_topology()
        agreements = list(enumerate_mutuality_agreements(graph))
        # Fig. 1 has peering links A–B, C–D, D–E, E–F.  The tier-1 pair
        # A–B has nothing to offer (no providers, no other peers), so
        # three productive MAs remain.
        assert len(agreements) == 3
        pairs = {frozenset(a.parties) for a in agreements}
        assert frozenset({AS_D, AS_E}) in pairs
        assert frozenset({AS_A, AS_B}) not in pairs

    def test_no_duplicate_pairs(self, small_topology):
        agreements = list(enumerate_mutuality_agreements(small_topology.graph))
        pairs = [frozenset(a.parties) for a in agreements]
        assert len(pairs) == len(set(pairs))

    def test_every_agreement_is_between_peers(self, small_topology):
        graph = small_topology.graph
        for agreement in enumerate_mutuality_agreements(graph):
            x, y = agreement.parties
            assert y in graph.peers(x)

    def test_every_agreement_validates(self, small_topology):
        graph = small_topology.graph
        for agreement in enumerate_mutuality_agreements(graph):
            agreement.validate_against(graph)

    def test_agreements_involving_filter(self):
        graph = figure1_topology()
        agreements = list(enumerate_mutuality_agreements(graph))
        involving_d = agreements_involving(agreements, AS_D)
        assert all(AS_D in a.parties for a in involving_d)
        assert len(involving_d) == 2  # C–D and D–E

    def test_len_builds_no_objects(self, small_topology, agreement_inits):
        agreements = enumerate_mutuality_agreements(small_topology.graph)
        assert len(agreements) > 0
        assert agreement_inits == []
        assert len(list(agreements)) == len(agreements) == len(agreement_inits)

    def test_indexing_matches_iteration(self, small_topology):
        agreements = enumerate_mutuality_agreements(small_topology.graph)
        listed = list(agreements)
        assert agreements[0] == listed[0]
        assert agreements[-1] == listed[-1]
        with pytest.raises(IndexError):
            agreements[len(listed)]
        with pytest.raises(IndexError):
            agreements[-len(listed) - 1]

"""Unit tests for the mixed AS graph."""

import hashlib

import pytest

from repro.core import compile_topology
from repro.topology import ASGraph, Relationship, Role, TopologyError
from repro.topology.relationships import Link


@pytest.fixture()
def simple_graph():
    graph = ASGraph()
    graph.add_provider_customer(1, 2)
    graph.add_provider_customer(1, 3)
    graph.add_provider_customer(2, 4)
    graph.add_peering(2, 3)
    return graph


class TestConstruction:
    def test_add_as_is_idempotent(self):
        graph = ASGraph()
        graph.add_as(1)
        graph.add_as(1)
        assert len(graph) == 1

    def test_add_links_creates_ases(self, simple_graph):
        assert simple_graph.ases == frozenset({1, 2, 3, 4})

    def test_duplicate_identical_link_is_ignored(self, simple_graph):
        simple_graph.add_provider_customer(1, 2)
        assert simple_graph.num_links() == 4

    def test_conflicting_relationship_rejected(self, simple_graph):
        with pytest.raises(TopologyError):
            simple_graph.add_peering(1, 2)

    def test_conflicting_direction_rejected(self, simple_graph):
        with pytest.raises(TopologyError):
            simple_graph.add_provider_customer(2, 1)

    def test_add_prebuilt_link(self):
        graph = ASGraph()
        graph.add_link(Link(9, 8, Relationship.PROVIDER_TO_CUSTOMER))
        assert graph.providers(8) == frozenset({9})

    def test_remove_link(self, simple_graph):
        simple_graph.remove_link(2, 3)
        assert not simple_graph.has_link(2, 3)
        assert simple_graph.peers(2) == frozenset()

    def test_remove_missing_link_raises(self, simple_graph):
        with pytest.raises(TopologyError):
            simple_graph.remove_link(1, 4)


class TestNeighborSets:
    def test_providers(self, simple_graph):
        assert simple_graph.providers(2) == frozenset({1})
        assert simple_graph.providers(1) == frozenset()

    def test_customers(self, simple_graph):
        assert simple_graph.customers(1) == frozenset({2, 3})
        assert simple_graph.customers(4) == frozenset()

    def test_peers(self, simple_graph):
        assert simple_graph.peers(2) == frozenset({3})
        assert simple_graph.peers(3) == frozenset({2})

    def test_neighbors(self, simple_graph):
        assert simple_graph.neighbors(2) == frozenset({1, 3, 4})

    def test_degree(self, simple_graph):
        assert simple_graph.degree(2) == 3
        assert simple_graph.degree(4) == 1

    def test_unknown_as_raises(self, simple_graph):
        with pytest.raises(TopologyError):
            simple_graph.providers(99)

    def test_role_of(self, simple_graph):
        assert simple_graph.role_of(2, 1) is Role.PROVIDER
        assert simple_graph.role_of(2, 4) is Role.CUSTOMER
        assert simple_graph.role_of(2, 3) is Role.PEER

    def test_role_of_non_neighbor_raises(self, simple_graph):
        with pytest.raises(TopologyError):
            simple_graph.role_of(1, 4)


class TestQueries:
    def test_link_counts(self, simple_graph):
        assert simple_graph.num_links() == 4
        assert simple_graph.num_peering_links() == 1
        assert simple_graph.num_transit_links() == 3

    def test_relationship_lookup(self, simple_graph):
        assert simple_graph.relationship(2, 3) is Relationship.PEER_TO_PEER
        assert simple_graph.relationship(1, 2) is Relationship.PROVIDER_TO_CUSTOMER

    def test_missing_link_lookup_raises(self, simple_graph):
        with pytest.raises(TopologyError):
            simple_graph.link(1, 4)

    def test_is_stub(self, simple_graph):
        assert simple_graph.is_stub(4)
        assert not simple_graph.is_stub(1)

    def test_tier1_ases(self, simple_graph):
        assert simple_graph.tier1_ases() == frozenset({1})

    def test_customer_cone(self, simple_graph):
        assert simple_graph.customer_cone(1) == frozenset({1, 2, 3, 4})
        assert simple_graph.customer_cone(2) == frozenset({2, 4})
        assert simple_graph.customer_cone(4) == frozenset({4})

    def test_iteration_is_sorted(self, simple_graph):
        assert list(simple_graph) == [1, 2, 3, 4]

    def test_contains(self, simple_graph):
        assert 1 in simple_graph
        assert 99 not in simple_graph

    def test_links_are_deterministic(self, simple_graph):
        assert simple_graph.links == simple_graph.links


class TestValidationAndExport:
    def test_validate_accepts_hierarchy(self, simple_graph):
        simple_graph.validate()

    def test_validate_rejects_provider_cycle(self):
        graph = ASGraph()
        graph.add_provider_customer(1, 2)
        graph.add_provider_customer(2, 3)
        graph.add_provider_customer(3, 1)
        graph.add_provider_customer(3, 4)
        with pytest.raises(TopologyError, match="cycle") as caught:
            graph.validate()
        message = str(caught.value)
        for asn in (1, 2, 3):
            assert f"AS {asn}" in message
        assert "AS 4" not in message

    def test_validate_walks_deep_hierarchies_iteratively(self):
        graph = ASGraph()
        for asn in range(1, 5000):
            graph.add_provider_customer(asn, asn + 1)
        graph.validate()
        graph.add_provider_customer(5000, 1)
        with pytest.raises(TopologyError, match="AS 5000 -> AS 1"):
            graph.validate()

    def test_copy_is_independent(self, simple_graph):
        clone = simple_graph.copy()
        clone.add_provider_customer(3, 5)
        assert 5 not in simple_graph
        assert 5 in clone

    def test_subgraph(self, simple_graph):
        sub = simple_graph.subgraph({1, 2, 4})
        assert sub.ases == frozenset({1, 2, 4})
        assert sub.has_link(1, 2)
        assert sub.has_link(2, 4)
        assert not sub.has_link(2, 3)

    def test_repr_contains_counts(self, simple_graph):
        text = repr(simple_graph)
        assert "ases=4" in text


def fingerprint(graph: ASGraph) -> str:
    return compile_topology(graph).source_fingerprint


class TestContentFingerprint:
    """The content digest of a graph is its compiled view's fingerprint."""

    def test_insertion_order_independent(self):
        a = ASGraph()
        a.add_provider_customer(1, 2)
        a.add_peering(2, 3)
        b = ASGraph()
        b.add_peering(2, 3)
        b.add_provider_customer(1, 2)
        assert fingerprint(a) == fingerprint(b)

    def test_changes_on_mutation(self):
        graph = ASGraph()
        graph.add_provider_customer(1, 2)
        before = fingerprint(graph)
        graph.add_peering(2, 3)
        with_link = fingerprint(graph)
        assert with_link != before
        # Removing the link keeps AS 3 in the graph: same content as a
        # fresh graph built that way, distinct from both earlier states.
        graph.remove_link(2, 3)
        reference = ASGraph()
        reference.add_provider_customer(1, 2)
        reference.add_as(3)
        assert fingerprint(graph) == fingerprint(reference)
        assert fingerprint(graph) != with_link

    def test_direction_matters(self):
        a = ASGraph()
        a.add_provider_customer(1, 2)
        b = ASGraph()
        b.add_provider_customer(2, 1)
        assert fingerprint(a) != fingerprint(b)

    def test_relationship_matters(self):
        a = ASGraph()
        a.add_provider_customer(1, 2)
        b = ASGraph()
        b.add_peering(1, 2)
        assert fingerprint(a) != fingerprint(b)

    def test_memo_is_invalidated_by_mutation_count(self):
        graph = ASGraph()
        graph.add_peering(1, 2)
        view = compile_topology(graph)
        first = view.source_fingerprint
        assert compile_topology(graph) is view  # served from the compile cache
        assert view.source_fingerprint is first
        graph.add_peering(1, 3)
        assert compile_topology(graph) is not view
        assert fingerprint(graph) != first

    def test_empty_graph_hashes_no_content(self):
        assert fingerprint(ASGraph()) == hashlib.sha256().hexdigest()

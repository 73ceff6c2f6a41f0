"""Unit tests for the degree-gravity link-capacity model."""

import pytest

from repro.topology.bandwidth import LinkCapacityModel, degree_gravity_capacities
from repro.topology.fixtures import AS_A, AS_B, AS_D, AS_E, AS_H, figure1_topology
from repro.topology.graph import ASGraph


class TestLinkCapacityModel:
    def test_set_and_get_capacity(self):
        model = LinkCapacityModel()
        model.set_capacity(1, 2, 10.0)
        assert model.capacity(1, 2) == 10.0
        assert model.capacity(2, 1) == 10.0

    def test_negative_capacity_rejected(self):
        model = LinkCapacityModel()
        with pytest.raises(ValueError):
            model.set_capacity(1, 2, -1.0)

    def test_nan_capacity_rejected(self):
        """NaN would make the bottleneck depend on the path's direction."""
        model = LinkCapacityModel()
        with pytest.raises(ValueError, match="nan"):
            model.set_capacity(1, 2, float("nan"))
        assert model.capacities == {}
        with pytest.raises(ValueError, match="nan"):
            LinkCapacityModel(capacities={frozenset((1, 2)): float("nan")})

    def test_missing_capacity_raises(self):
        model = LinkCapacityModel()
        with pytest.raises(KeyError):
            model.capacity(1, 2)

    def test_path_bandwidth_is_bottleneck(self):
        model = LinkCapacityModel()
        model.set_capacity(1, 2, 10.0)
        model.set_capacity(2, 3, 4.0)
        assert model.path_bandwidth((1, 2, 3)) == 4.0

    def test_trivial_path_bandwidth_is_infinite(self):
        model = LinkCapacityModel()
        assert model.path_bandwidth((1,)) == float("inf")


class TestDegreeGravity:
    def test_capacity_proportional_to_degree_product(self):
        graph = ASGraph()
        graph.add_provider_customer(1, 2)
        graph.add_provider_customer(1, 3)
        graph.add_provider_customer(2, 3)
        model = degree_gravity_capacities(graph, scale=2.0)
        # degrees: 1 -> 2, 2 -> 2, 3 -> 2
        assert model.capacity(1, 2) == pytest.approx(2.0 * 2 * 2)

    def test_every_link_of_figure1_has_capacity(self):
        graph = figure1_topology()
        model = degree_gravity_capacities(graph)
        for link in graph.links:
            assert model.capacity(link.first, link.second) > 0.0

    def test_high_degree_links_have_higher_capacity(self):
        graph = figure1_topology()
        model = degree_gravity_capacities(graph)
        # The A–B core link joins the two highest-degree ASes and must beat
        # the stub link D–H.
        assert model.capacity(AS_A, AS_B) > model.capacity(AS_D, AS_H)

    def test_extra_link_endpoints(self):
        graph = figure1_topology()
        model = degree_gravity_capacities(graph, extra_link_endpoints=((AS_D, AS_B),))
        assert model.capacity(AS_D, AS_B) == pytest.approx(
            graph.degree(AS_D) * graph.degree(AS_B)
        )

    def test_path_bandwidth_uses_weakest_link(self):
        graph = figure1_topology()
        model = degree_gravity_capacities(graph)
        path = (AS_H, AS_D, AS_E)
        expected = min(model.capacity(AS_H, AS_D), model.capacity(AS_D, AS_E))
        assert model.path_bandwidth(path) == expected

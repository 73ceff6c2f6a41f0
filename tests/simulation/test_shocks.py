"""Marketplace shocks: regional partitions and price wars."""

import pytest

from repro.agents import assign_regions
from repro.simulation import SimulationError
from repro.simulation.failures import LINK_DOWN, LINK_UP
from repro.simulation.shocks import PriceWar, RegionalPartition
from repro.topology.generator import generate_topology


@pytest.fixture(scope="module")
def graph():
    return generate_topology(
        num_tier1=3, num_tier2=6, num_tier3=12, num_stubs=30, seed=11
    ).graph


class TestRegionalPartition:
    def test_schedule_covers_exactly_the_boundary_links(self, graph):
        regions = assign_regions(graph, seed=2021)
        partition = RegionalPartition(region=2, start=10.0, duration=5.0)
        schedule = partition.failure_schedule(graph, regions)
        boundary = {
            frozenset((link.first, link.second))
            for link in graph.links
            if (regions[link.first] == 2) != (regions[link.second] == 2)
        }
        assert boundary, "fixture topology must cross the partitioned region"
        downs = [e for e in schedule.events if e.kind == LINK_DOWN]
        ups = [e for e in schedule.events if e.kind == LINK_UP]
        assert {frozenset((e.left, e.right)) for e in downs} == boundary
        assert {frozenset((e.left, e.right)) for e in ups} == boundary
        assert all(e.time == 10.0 for e in downs)
        assert all(e.time == 15.0 for e in ups)

    def test_interior_links_are_untouched(self, graph):
        regions = {asn: 0 for asn in graph}  # whole topology in one region
        schedule = RegionalPartition(region=0, start=1.0, duration=1.0).failure_schedule(
            graph, regions
        )
        assert schedule.events == ()

    def test_parameter_validation(self):
        with pytest.raises(SimulationError, match="region"):
            RegionalPartition(region=-1, start=0.0, duration=1.0)
        with pytest.raises(SimulationError, match="start"):
            RegionalPartition(region=0, start=-1.0, duration=1.0)
        with pytest.raises(SimulationError, match="duration"):
            RegionalPartition(region=0, start=0.0, duration=0.0)


class TestPriceWar:
    def test_multiplier_applies_only_inside_the_window(self):
        war = PriceWar(start=10.0, duration=5.0, multiplier=0.5, region=3)
        assert war.multiplier_at(9.999, 3) == 1.0
        assert war.multiplier_at(10.0, 3) == 0.5
        assert war.multiplier_at(14.999, 3) == 0.5
        assert war.multiplier_at(15.0, 3) == 1.0  # half-open window

    def test_region_scoping(self):
        scoped = PriceWar(start=0.0, duration=1.0, multiplier=0.5, region=3)
        assert scoped.multiplier_at(0.5, 2) == 1.0
        everywhere = PriceWar(start=0.0, duration=1.0, multiplier=0.5)
        assert everywhere.multiplier_at(0.5, 2) == 0.5

    def test_parameter_validation(self):
        with pytest.raises(SimulationError, match="multiplier"):
            PriceWar(start=0.0, duration=1.0, multiplier=0.0)
        with pytest.raises(SimulationError, match="duration"):
            PriceWar(start=0.0, duration=-2.0)

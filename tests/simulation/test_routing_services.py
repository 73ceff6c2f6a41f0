"""Tests for the BGP and PAN routing services over a dynamic topology."""

import pytest

from repro.simulation import (
    AvailabilityMonitor,
    BGPRoutingService,
    DynamicNetwork,
    PANRoutingService,
    SimulationEngine,
)
from repro.topology.graph import ASGraph


@pytest.fixture()
def diamond() -> ASGraph:
    """Two peering tier-1s (1, 2), both providers of stubs 3 and 4."""
    graph = ASGraph()
    graph.add_peering(1, 2)
    graph.add_provider_customer(1, 3)
    graph.add_provider_customer(2, 3)
    graph.add_provider_customer(1, 4)
    graph.add_provider_customer(2, 4)
    return graph


def build(diamond, *, reconvergence_delay=1.0, beacon_interval=100.0):
    engine = SimulationEngine()
    network = DynamicNetwork(diamond)
    bgp = BGPRoutingService(
        network=network, destinations=(4,), reconvergence_delay=reconvergence_delay
    )
    pan = PANRoutingService(network=network, beacon_interval=beacon_interval)
    engine.add_process(bgp)
    engine.add_process(pan)
    engine.run(until=0.0)
    return engine, network, bgp, pan


class TestBGPRoutingService:
    def test_initial_route_and_availability(self, diamond):
        _, _, bgp, _ = build(diamond)
        assert bgp.route(3, 4) == (3, 1, 4)
        assert bgp.is_available(3, 4)

    def test_stale_route_blackholes_until_reconvergence(self, diamond):
        engine, network, bgp, _ = build(diamond, reconvergence_delay=1.0)
        network.fail_link(1, 4, time=engine.now)
        # The stale route still points over the failed link.
        assert bgp.route(3, 4) == (3, 1, 4)
        assert not bgp.is_available(3, 4)
        engine.run(until=2.0)
        # Reconvergence found the alternative through AS 2.
        assert bgp.route(3, 4) == (3, 2, 4)
        assert bgp.is_available(3, 4)
        assert bgp.reconvergences == 1
        assert len(engine.trace.of_kind("bgp_reconverged")) == 1

    def test_changes_within_one_window_reconverge_once(self, diamond):
        engine, network, bgp, _ = build(diamond, reconvergence_delay=1.0)
        network.fail_link(1, 4, time=0.0)
        engine.run(until=0.5)
        network.fail_link(1, 3, time=0.5)
        engine.run(until=5.0)
        assert bgp.reconvergences == 1
        assert bgp.route(3, 4) == (3, 2, 4)

    def test_partitioned_destination_stays_unavailable(self, diamond):
        engine, network, bgp, _ = build(diamond, reconvergence_delay=1.0)
        network.fail_link(1, 4, time=0.0)
        engine.run(until=0.5)
        network.fail_link(2, 4, time=0.5)
        engine.run(until=5.0)
        assert bgp.route(3, 4) is None
        assert not bgp.is_available(3, 4)


class TestPANRoutingService:
    def test_beaconing_discovers_multiple_paths(self, diamond):
        _, _, _, pan = build(diamond)
        paths = pan.paths(3, 4)
        assert (3, 1, 4) in paths
        assert (3, 2, 4) in paths
        assert len(paths) >= 2

    def test_instant_failover_without_rebeaconing(self, diamond):
        engine, network, _, pan = build(diamond)
        network.fail_link(1, 4, time=engine.now)
        # No beaconing has happened since the failure, yet the source
        # simply picks another of its known paths.
        assert pan.beaconing_runs == 1
        assert pan.is_available(3, 4)

    def test_unavailable_only_when_all_paths_break(self, diamond):
        engine, network, _, pan = build(diamond)
        network.fail_link(1, 4, time=0.0)
        network.fail_link(2, 4, time=0.0)
        assert not pan.is_available(3, 4)

    def test_periodic_beaconing_reruns(self, diamond):
        engine, _, _, pan = build(diamond, beacon_interval=1.0)
        engine.run(until=3.0)
        assert pan.beaconing_runs == 4  # t = 0, 1, 2, 3
        assert len(engine.trace.of_kind("beaconing_completed")) == 4


class TestAvailabilityMonitor:
    def test_samples_both_architectures(self, diamond):
        engine = SimulationEngine()
        network = DynamicNetwork(diamond)
        bgp = BGPRoutingService(network=network, destinations=(4,))
        pan = PANRoutingService(network=network)
        monitor = AvailabilityMonitor(
            services=(bgp, pan), pairs=((3, 4),), sample_interval=1.0
        )
        for process in (bgp, pan, monitor):
            engine.add_process(process)
        trace = engine.run(until=2.0)
        samples = trace.of_kind("availability_sample")
        assert len(samples) == 6  # 3 sampling instants x 2 architectures
        assert trace.architectures() == ("BGP", "PAN")
        assert trace.availability("BGP") == 1.0
        assert trace.availability("PAN") == 1.0

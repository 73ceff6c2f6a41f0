"""Compiled-topology invalidation under simulated link failure/recovery churn.

Drives a :class:`DynamicNetwork` through failure and recovery events and
asserts that the recompile-on-churn contract holds: the compiled active
view and the shared path engine always answer for the *current* active
topology, memoized results of ASes outside the dirty region survive a
recompile, and the answers match a from-scratch naive enumeration after
every single event.
"""

import random

import pytest

from repro.reference import iter_grc_length3_paths
from repro.simulation import DynamicNetwork
from repro.topology import figure1_topology
from repro.topology.fixtures import AS_A, AS_D, AS_E, AS_H, AS_I
from repro.topology.generator import generate_topology


@pytest.fixture()
def network():
    return DynamicNetwork(figure1_topology())


def _naive(graph, source):
    return frozenset(iter_grc_length3_paths(graph, source))


class TestCompiledActive:
    def test_compiled_view_tracks_the_active_graph(self, network):
        compiled = network.compiled_active()
        assert compiled.has_link(AS_D, AS_E)
        network.fail_link(AS_D, AS_E)
        recompiled = network.compiled_active()
        assert recompiled is not compiled
        assert not recompiled.has_link(AS_D, AS_E)

    def test_compiled_view_is_cached_between_changes(self, network):
        assert network.compiled_active() is network.compiled_active()
        before = network.recompiles
        network.compiled_active()
        assert network.recompiles == before

    def test_recovery_recompiles_too(self, network):
        network.fail_link(AS_D, AS_E)
        failed_view = network.compiled_active()
        network.restore_link(AS_D, AS_E)
        assert network.compiled_active() is not failed_view
        assert network.compiled_active().has_link(AS_D, AS_E)


class TestEngineInvalidation:
    def test_engine_answers_for_the_current_active_topology(self, network):
        engine = network.path_engine()
        assert (AS_H, AS_D, AS_E) in engine.paths(AS_H)
        network.fail_link(AS_D, AS_E)
        engine = network.path_engine()
        assert (AS_H, AS_D, AS_E) not in engine.paths(AS_H)
        network.restore_link(AS_D, AS_E)
        assert (AS_H, AS_D, AS_E) in network.path_engine().paths(AS_H)

    def test_clean_sources_survive_a_dirty_recompile(self, network):
        engine = network.path_engine()
        clean = engine.paths(AS_I)  # I neighbors only E; D–H churn cannot touch it
        network.fail_link(AS_D, AS_H)
        refreshed = network.path_engine()
        assert refreshed is engine  # same engine object, refreshed in place
        assert refreshed.paths(AS_I) is clean

    def test_dirty_sources_are_recomputed(self, network):
        engine = network.path_engine()
        engine.paths(AS_A)
        network.fail_link(AS_D, AS_H)
        refreshed = network.path_engine()
        active = network.active_graph()
        assert refreshed.paths(AS_A) == _naive(active, AS_A)
        assert refreshed.paths(AS_D) == _naive(active, AS_D)

    def test_engine_matches_naive_after_every_churn_event(self):
        topology = generate_topology(
            num_tier1=3, num_tier2=8, num_tier3=20, num_stubs=60, seed=23
        )
        network = DynamicNetwork(topology.graph)
        links = [(link.first, link.second) for link in topology.graph.links]
        rng = random.Random(7)
        probes = sorted(topology.graph.ases)[::17]

        failed: list[tuple[int, int]] = []
        for step in range(20):
            if failed and rng.random() < 0.45:
                left, right = failed.pop(rng.randrange(len(failed)))
                network.restore_link(left, right, time=float(step))
            else:
                left, right = links[rng.randrange(len(links))]
                if not network.fail_link(left, right, time=float(step)):
                    continue
                failed.append((left, right))
            engine = network.path_engine()
            active = network.active_graph()
            for source in probes:
                assert engine.paths(source) == _naive(active, source)
                assert engine.count(source) == len(_naive(active, source))
                assert engine.destinations(source) == {
                    p[2] for p in _naive(active, source)
                }

    def test_batched_counts_match_after_churn(self, network):
        network.path_engine().counts_by_source()
        network.fail_link(AS_D, AS_E)
        engine = network.path_engine()
        active = network.active_graph()
        assert engine.counts_by_source() == {
            asn: len(_naive(active, asn)) for asn in active
        }

"""Tests for the batched GRC length-3 path engine."""

from collections import defaultdict

import numpy as np
import pytest

from repro.core import PathEngine, compile_topology, path_engine_for
from repro.reference import iter_grc_length3_paths
from repro.topology import TopologyError, figure1_topology
from repro.topology.fixtures import AS_A, AS_B, AS_C, AS_D, AS_E, AS_F, AS_H, AS_I
from repro.topology.generator import generate_topology


@pytest.fixture()
def graph():
    return figure1_topology()


@pytest.fixture()
def engine(graph):
    return PathEngine(compile_topology(graph))


def _by_source(engine, counts):
    """``{source ASN: count}`` from an all-sources count array."""
    return dict(zip(engine.topology.asns, counts.tolist()))


def _all_counts(engine):
    n = engine.topology.n
    return (
        _by_source(engine, engine.counts_range(0, n)),
        _by_source(engine, engine.destination_counts_range(0, n)),
    )


def _is_valley_free(graph, path):
    """The GRC condition: the transit forwards iff an endpoint is its customer."""
    first, transit, last = path
    customers = graph.customers(transit)
    return first in customers or last in customers


class TestPerSourceQueries:
    def test_paths_match_the_naive_reference(self, graph, engine):
        for source in graph:
            assert engine.paths(source) == frozenset(
                iter_grc_length3_paths(graph, source)
            )

    def test_known_paths_from_the_figure1_topology(self, engine):
        assert engine.paths(AS_H) == {
            (AS_H, AS_D, AS_A),
            (AS_H, AS_D, AS_C),
            (AS_H, AS_D, AS_E),
        }
        assert engine.destinations(AS_H) == {AS_A, AS_C, AS_E}

    def test_counts_match_path_sets(self, graph, engine):
        counts, destination_counts = _all_counts(engine)
        for source in graph:
            assert counts[source] == len(engine.paths(source))
            assert destination_counts[source] == len(engine.destinations(source))

    def test_paths_between(self, graph, engine):
        for source in graph:
            grouped = defaultdict(set)
            for path in engine.paths(source):
                grouped[path[2]].add(path)
            assert set(grouped) == engine.destinations(source)
            for destination, paths in grouped.items():
                assert paths == {
                    p
                    for p in iter_grc_length3_paths(graph, source)
                    if p[2] == destination
                }

    def test_paths_between_same_as_is_empty(self, engine):
        assert all(path[2] != AS_D for path in engine.paths(AS_D))

    def test_is_grc_path(self, graph, engine):
        assert (AS_D, AS_E, AS_I) in engine.paths(AS_D)
        assert (AS_D, AS_E, AS_A) not in engine.paths(AS_D)  # no E–A link
        assert (AS_D, AS_D, AS_E) not in engine.paths(AS_D)  # not three distinct
        for source in graph:
            paths = engine.paths(source)
            for path in iter_grc_length3_paths(graph, source):
                assert path in paths

    def test_unknown_source_raises_topology_error(self, engine):
        with pytest.raises(TopologyError):
            engine.paths(999_999)
        with pytest.raises(TopologyError):
            engine.destinations(999_999)


class TestFigure1Paths:
    """Fig. 1 path checks, stated with the GRC condition itself."""

    def test_customer_on_either_side_is_conforming(self, engine):
        assert (AS_A, AS_D, AS_H) in engine.paths(AS_A)  # H is D's customer
        assert (AS_H, AS_D, AS_E) in engine.paths(AS_H)

    def test_peer_to_provider_is_not_conforming(self, engine):
        assert (AS_E, AS_D, AS_A) not in engine.paths(AS_E)

    def test_peer_to_peer_transit_is_not_conforming(self, engine):
        assert (AS_C, AS_D, AS_E) not in engine.paths(AS_C)

    def test_paths_from_stub_as(self, engine):
        # From H: H–D–X for every neighbor X of D except H (H is D's
        # customer, so D exports everything to H).
        assert engine.paths(AS_H) == {
            (AS_H, AS_D, AS_A),
            (AS_H, AS_D, AS_C),
            (AS_H, AS_D, AS_E),
        }

    def test_paths_from_transit_as(self, engine):
        paths = engine.paths(AS_D)
        # Via provider A: everything A exports to its customer D, i.e. A's
        # customer C and also A's peer B (customer cones see all routes).
        assert (AS_D, AS_A, AS_C) in paths
        assert (AS_D, AS_A, AS_B) in paths
        # Via peer E: only E's customer I.
        assert (AS_D, AS_E, AS_I) in paths
        assert (AS_D, AS_E, AS_B) not in paths
        assert (AS_D, AS_E, AS_F) not in paths
        # Via customer H: H has no other neighbors, so nothing.
        assert all(path[1] != AS_H for path in paths)

    def test_count_matches_enumeration(self, graph, engine):
        counts, _ = _all_counts(engine)
        for source in graph:
            assert counts[source] == len(list(iter_grc_length3_paths(graph, source)))

    def test_paths_never_return_to_source(self, graph, engine):
        for source in graph:
            assert source not in engine.destinations(source)
            for path in engine.paths(source):
                assert path[2] != source
                assert path[0] == source

    def test_all_enumerated_paths_are_conforming(self, graph, engine):
        for source in graph:
            for path in engine.paths(source):
                assert _is_valley_free(graph, path)

    def test_destinations(self, engine):
        assert engine.destinations(AS_H) == {AS_A, AS_C, AS_E}

    def test_paths_between_pair_are_disjoint(self, graph, engine):
        """All length-3 paths between a fixed pair share only the endpoints."""
        for source in graph:
            middles = defaultdict(list)
            for _, transit, destination in engine.paths(source):
                middles[destination].append(transit)
            for transits in middles.values():
                assert len(transits) == len(set(transits))

    def test_generated_topology_paths_are_conforming(self, small_topology):
        graph = small_topology.graph
        engine = path_engine_for(graph)
        for source in sorted(graph.ases)[:20]:
            for path in engine.paths(source):
                assert _is_valley_free(graph, path)


class TestBatchedQueries:
    def test_counts_by_source_cover_every_as(self, graph, engine):
        counts, _ = _all_counts(engine)
        assert set(counts) == graph.ases
        for source in graph:
            assert counts[source] == sum(1 for _ in iter_grc_length3_paths(graph, source))

    def test_destination_counts_by_source(self, graph, engine):
        _, counts = _all_counts(engine)
        for source in graph:
            naive = {p[2] for p in iter_grc_length3_paths(graph, source)}
            assert counts[source] == len(naive)

    def test_memoized_paths_are_the_same_object(self, engine):
        assert engine.paths(AS_D) is engine.paths(AS_D)


class TestBlockedSweep:
    def test_tiny_blocks_give_identical_results(self, graph, monkeypatch):
        wide = PathEngine(compile_topology(graph))
        n = wide.topology.n
        wide_counts = wide.destination_counts_range(0, n)
        # A one-byte budget forces one source per destination block;
        # results must not depend on the blocking at all.
        monkeypatch.setattr("repro.core.path_engine.DEFAULT_BLOCK_BYTES", 1)
        blocked = PathEngine(compile_topology(graph))
        assert blocked.block_size() == 1
        assert np.array_equal(blocked.destination_counts_range(0, n), wide_counts)
        for source in graph:
            assert blocked.destinations(source) == wide.destinations(source)

    def test_range_concatenation_equals_full_pass(self, graph):
        engine = PathEngine(compile_topology(graph))
        n = engine.topology.n
        cut = n // 3
        for method in (engine.counts_range, engine.destination_counts_range):
            full = method(0, n)
            merged = np.concatenate(
                [method(0, cut), method(cut, 2 * cut), method(2 * cut, n)]
            )
            assert np.array_equal(full, merged)

    def test_no_dense_nxn_allocation(self, graph, monkeypatch):
        import repro.core.path_engine as pe

        monkeypatch.setattr(pe, "DEFAULT_BLOCK_BYTES", 64)
        engine = PathEngine(compile_topology(graph))
        seen_shapes = []
        original = pe.PathEngine._destination_block

        def spy(self, lo, hi):
            block = original(self, lo, hi)
            seen_shapes.append(block.shape)
            return block

        monkeypatch.setattr(pe.PathEngine, "_destination_block", spy)
        engine.destination_counts_range(0, engine.topology.n)
        n = engine.topology.n
        assert seen_shapes, "blocked sweep never ran"
        assert all(rows < n for rows, _ in seen_shapes)


class TestSharedEngineCache:
    def test_same_engine_until_mutation(self, graph):
        first = path_engine_for(graph)
        assert path_engine_for(graph) is first
        before = first.paths(AS_D)
        graph.remove_link(AS_D, AS_E)
        second = path_engine_for(graph)
        # A mutation yields a new engine over the new compiled view...
        assert second is not first
        assert second.topology is compile_topology(graph)
        assert second.paths(AS_D) == frozenset(iter_grc_length3_paths(graph, AS_D))
        assert second.paths(AS_D) != before
        # ...and the old engine still answers for its own view.
        assert first.topology is not second.topology
        assert first.paths(AS_D) is before
        assert (AS_D, AS_E, AS_I) in first.paths(AS_D)

    def test_generated_topology_engine_matches_reference(self):
        graph = generate_topology(
            num_tier1=3, num_tier2=8, num_tier3=20, num_stubs=60, seed=11
        ).graph
        engine = path_engine_for(graph)
        for source in sorted(graph.ases)[:30]:
            assert engine.paths(source) == frozenset(
                iter_grc_length3_paths(graph, source)
            )

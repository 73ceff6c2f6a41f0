"""Tests for the batched GRC length-3 path engine."""

import pytest

from repro.core import PathEngine, compile_topology, path_engine_for
from repro.reference import iter_grc_length3_paths
from repro.topology import TopologyError, figure1_topology
from repro.topology.fixtures import AS_A, AS_C, AS_D, AS_E, AS_H, AS_I
from repro.topology.generator import generate_topology


@pytest.fixture()
def graph():
    return figure1_topology()


@pytest.fixture()
def engine(graph):
    return PathEngine(compile_topology(graph))


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
        for source in graph:
            assert engine.count(source) == len(engine.paths(source))
            assert engine.destination_count(source) == len(engine.destinations(source))

    def test_paths_between(self, graph, engine):
        for source in graph:
            for destination in engine.destinations(source):
                expected = frozenset(
                    p
                    for p in iter_grc_length3_paths(graph, source)
                    if p[2] == destination
                )
                assert engine.paths_between(source, destination) == expected

    def test_paths_between_same_as_is_empty(self, engine):
        assert engine.paths_between(AS_D, AS_D) == frozenset()

    def test_is_grc_path(self, graph, engine):
        assert engine.is_grc_path(AS_D, AS_E, AS_I)
        assert not engine.is_grc_path(AS_D, AS_E, AS_A)  # no E–A link
        assert not engine.is_grc_path(AS_D, AS_D, AS_E)  # not three distinct
        for source in graph:
            for path in iter_grc_length3_paths(graph, source):
                assert engine.is_grc_path(*path)

    def test_unknown_source_raises_topology_error(self, engine):
        with pytest.raises(TopologyError):
            engine.paths(999_999)
        with pytest.raises(TopologyError):
            engine.count(999_999)


class TestBatchedQueries:
    def test_counts_by_source_cover_every_as(self, graph, engine):
        counts = engine.counts_by_source()
        assert set(counts) == graph.ases
        for source in graph:
            assert counts[source] == sum(1 for _ in iter_grc_length3_paths(graph, source))

    def test_destination_counts_by_source(self, graph, engine):
        counts = engine.destination_counts_by_source()
        for source in graph:
            naive = {p[2] for p in iter_grc_length3_paths(graph, source)}
            assert counts[source] == len(naive)

    def test_memoized_paths_are_the_same_object(self, engine):
        assert engine.paths(AS_D) is engine.paths(AS_D)


class TestBlockedSweep:
    def test_tiny_blocks_give_identical_results(self, graph):
        # block_bytes=1 forces one source per destination block; results
        # must not depend on the blocking at all.
        blocked = PathEngine(compile_topology(graph), block_bytes=1)
        assert blocked.block_size() == 1
        wide = PathEngine(compile_topology(graph))
        for source in graph:
            assert (
                blocked.count(source),
                blocked.destination_count(source),
                blocked.destinations(source),
            ) == (
                wide.count(source),
                wide.destination_count(source),
                wide.destinations(source),
            )

    def test_range_concatenation_equals_full_pass(self, graph):
        import numpy as np

        engine = PathEngine(compile_topology(graph))
        n = engine.topology.n
        cut = n // 3
        for method in (engine.counts_range, engine.destination_counts_range):
            full = method(0, n)
            merged = np.concatenate(
                [method(0, cut), method(cut, 2 * cut), method(2 * cut, n)]
            )
            assert np.array_equal(full, merged)

    def test_no_dense_nxn_allocation(self, graph):
        import repro.core.path_engine as pe

        engine = PathEngine(compile_topology(graph), block_bytes=64)
        seen_shapes = []
        original = pe.PathEngine._destination_block

        def spy(self, lo, hi):
            block = original(self, lo, hi)
            seen_shapes.append(block.shape)
            return block

        pe.PathEngine._destination_block = spy
        try:
            engine.destination_counts_range(0, engine.topology.n)
        finally:
            pe.PathEngine._destination_block = original
        n = engine.topology.n
        assert seen_shapes, "blocked sweep never ran"
        assert all(rows < n for rows, _ in seen_shapes)


class TestRefresh:
    def test_full_refresh_drops_all_memoized_results(self, graph):
        engine = PathEngine(compile_topology(graph))
        before = engine.paths(AS_D)
        graph.remove_link(AS_D, AS_E)
        engine.refresh(compile_topology(graph))
        after = engine.paths(AS_D)
        assert after != before
        assert after == frozenset(iter_grc_length3_paths(graph, AS_D))

    def test_dirty_refresh_keeps_clean_sources(self, graph):
        engine = PathEngine(compile_topology(graph))
        clean_before = engine.paths(AS_I)  # I is 2+ hops from the D–H link
        graph.remove_link(AS_D, AS_H)
        dirty = {AS_D, AS_H} | graph.neighbors(AS_D) | {AS_A, AS_C, AS_E}
        engine.refresh(compile_topology(graph), dirty_sources=dirty)
        # The clean source keeps its memoized object...
        assert engine.paths(AS_I) is clean_before
        # ...and dirty sources are recomputed against the new topology.
        assert engine.paths(AS_D) == frozenset(iter_grc_length3_paths(graph, AS_D))
        assert all(path[1] != AS_H for path in engine.paths(AS_A))


class TestSharedEngineCache:
    def test_same_engine_until_mutation(self, graph):
        first = path_engine_for(graph)
        assert path_engine_for(graph) is first
        graph.add_peering(AS_C, AS_I)
        second = path_engine_for(graph)
        assert second is first  # the engine object is reused...
        # ...but answers reflect the mutated topology.
        assert second.paths(AS_C) == frozenset(iter_grc_length3_paths(graph, AS_C))

    def test_generated_topology_engine_matches_reference(self):
        graph = generate_topology(
            num_tier1=3, num_tier2=8, num_tier3=20, num_stubs=60, seed=11
        ).graph
        engine = path_engine_for(graph)
        for source in sorted(graph.ases)[:30]:
            assert engine.paths(source) == frozenset(
                iter_grc_length3_paths(graph, source)
            )

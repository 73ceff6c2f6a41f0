"""Property tests: the compiled core exactly matches the naive reference.

The compiled :class:`~repro.core.CompiledTopology` /
:class:`~repro.core.PathEngine` pair is a pure performance layer — on
any topology it must reproduce the dict/set reference implementations
bit-for-bit.  These tests drive randomized generator topologies through
both and assert set-level equality of path sets, destination sets, and
counts, plus the shared engine's behaviour under link failure/recovery
churn.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PathEngine, compile_topology, path_engine_for
from repro.reference import iter_grc_length3_paths
from repro.topology import generate_topology


@st.composite
def small_topologies(draw):
    """Small random Internet-like topologies (bounded for test speed)."""
    seed = draw(st.integers(min_value=0, max_value=500))
    num_tier2 = draw(st.integers(min_value=3, max_value=8))
    num_tier3 = draw(st.integers(min_value=5, max_value=20))
    num_stubs = draw(st.integers(min_value=10, max_value=40))
    return generate_topology(
        num_tier1=draw(st.integers(min_value=1, max_value=4)),
        num_tier2=num_tier2,
        num_tier3=num_tier3,
        num_stubs=num_stubs,
        seed=seed,
    )


def _naive_paths(graph, source):
    return frozenset(iter_grc_length3_paths(graph, source))


class TestCompiledTopologyEquivalence:
    @given(small_topologies())
    @settings(max_examples=12, deadline=None)
    def test_adjacency_and_roles_match_the_graph(self, topology):
        graph = topology.graph
        compiled = compile_topology(graph)
        for asn in graph:
            assert compiled.neighbors(asn) == graph.neighbors(asn)
            assert compiled.customers(asn) == graph.customers(asn)
            assert compiled.peers(asn) == graph.peers(asn)
            assert compiled.providers(asn) == graph.providers(asn)
            for neighbor in graph.neighbors(asn):
                assert compiled.role_of(asn, neighbor) is graph.role_of(asn, neighbor)


class TestPathEngineEquivalence:
    @given(small_topologies())
    @settings(max_examples=12, deadline=None)
    def test_paths_destinations_and_counts_match_the_reference(self, topology):
        graph = topology.graph
        engine = PathEngine(compile_topology(graph))
        n = engine.topology.n
        counts = engine.counts_range(0, n).tolist()
        destination_counts = engine.destination_counts_range(0, n).tolist()
        for i, source in enumerate(engine.topology.asns):
            naive = _naive_paths(graph, source)
            assert engine.paths(source) == naive
            assert engine.destinations(source) == {p[2] for p in naive}
            assert counts[i] == len(naive)
            assert destination_counts[i] == len({p[2] for p in naive})

    @given(small_topologies(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_paths_between_matches_the_reference(self, topology, pair_seed):
        graph = topology.graph
        engine = PathEngine(compile_topology(graph))
        rng = random.Random(pair_seed)
        ases = sorted(graph.ases)
        for _ in range(25):
            source, destination = rng.sample(ases, 2)
            expected = frozenset(
                p for p in _naive_paths(graph, source) if p[2] == destination
            )
            between = frozenset(p for p in engine.paths(source) if p[2] == destination)
            assert between == expected
            assert (destination in engine.destinations(source)) == bool(expected)


class TestChurnInvalidation:
    @given(small_topologies(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_engine_tracks_link_failure_and_recovery_churn(self, topology, churn_seed):
        """Remove and re-add links; the shared engine must stay exact."""
        graph = topology.graph
        rng = random.Random(churn_seed)
        links = list(graph.links)
        sample = sorted(graph.ases)
        sample = sample[:: max(1, len(sample) // 12)]  # spread probe sources

        removed = []
        for _ in range(6):
            if removed and rng.random() < 0.4:
                link = removed.pop(rng.randrange(len(removed)))
                graph.add_link(link)
            else:
                link = links[rng.randrange(len(links))]
                if not graph.has_link(link.first, link.second):
                    continue
                graph.remove_link(link.first, link.second)
                removed.append(link)
            engine = path_engine_for(graph)
            for source in sample:
                assert engine.paths(source) == _naive_paths(graph, source)
            assert engine.topology is compile_topology(graph)
            n = engine.topology.n
            naive = [_naive_paths(graph, source) for source in engine.topology.asns]
            assert engine.counts_range(0, n).tolist() == [len(p) for p in naive]
            assert engine.destination_counts_range(0, n).tolist() == [
                len({path[2] for path in p}) for p in naive
            ]

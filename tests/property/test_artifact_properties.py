"""Property tests: ingestion paths and artifacts are interchangeable.

Two contracts, each over randomized generator topologies:

- the streaming lines→arrays compile is indistinguishable from
  compiling the parsed :class:`~repro.topology.ASGraph` — identical
  CSR arrays (values and dtypes) and identical source fingerprint,
  including for ASNs beyond ``2**31`` and the empty topology;
- a compiled topology published to the artifact store and reopened
  memory-mapped is indistinguishable from the fresh compile — same
  arrays, same fingerprint, and identical
  :class:`~repro.core.PathEngine` outputs, blocked or not.

On the same wide-ASN link sets the :class:`~repro.core.PathEngine`
surface — per-source paths and destinations, and range counts split at
any point — equals :func:`repro.reference.iter_grc_length3_paths`.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PathEngine,
    compile_as_rel_lines,
    compile_topology,
    load_artifact,
)
from repro.core.artifacts import ArtifactStore
from repro.reference import iter_grc_length3_paths
from repro.topology import ASGraph, generate_topology
from repro.topology.caida import dump_as_rel_lines


@st.composite
def small_topologies(draw):
    """Small random Internet-like topologies (bounded for test speed)."""
    return generate_topology(
        num_tier1=draw(st.integers(min_value=1, max_value=4)),
        num_tier2=draw(st.integers(min_value=3, max_value=8)),
        num_tier3=draw(st.integers(min_value=5, max_value=20)),
        num_stubs=draw(st.integers(min_value=10, max_value=40)),
        seed=draw(st.integers(min_value=0, max_value=500)),
    )


@st.composite
def wide_asn_graphs(draw):
    """Random link sets over ASNs that may exceed ``2**31``, empty included.

    Every AS is an endpoint of some link, since as-rel lines cannot
    express an isolated AS.
    """
    asns = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=2**16),
                st.integers(min_value=2**31 - 4, max_value=2**32 - 1),
            ),
            unique=True,
            max_size=24,
        )
    )
    graph = ASGraph()
    if len(asns) < 2:
        return graph
    pairs = st.tuples(
        st.sampled_from(asns), st.sampled_from(asns), st.sampled_from([-1, 0])
    )
    for first, second, code in draw(st.lists(pairs, max_size=60)):
        if first == second or graph.has_link(first, second):
            continue
        if code == 0:
            graph.add_peering(first, second)
        else:
            graph.add_provider_customer(first, second)
    return graph


class TestStreamingEquivalence:
    @given(wide_asn_graphs())
    @settings(max_examples=60, deadline=None)
    def test_one_builder_for_both_inputs(self, graph):
        streamed = compile_as_rel_lines(dump_as_rel_lines(graph))
        reference = compile_topology(graph)
        assert streamed.same_arrays(reference)
        assert streamed.source_fingerprint == reference.source_fingerprint


    @given(small_topologies())
    @settings(max_examples=10, deadline=None)
    def test_streaming_compile_matches_graph_compile(self, topology):
        graph = topology.graph
        streamed = compile_as_rel_lines(dump_as_rel_lines(graph))
        reference = compile_topology(graph)
        assert streamed.same_arrays(reference)
        assert streamed.source_fingerprint == reference.source_fingerprint


class TestPathEngineOnWideAsns:
    @given(wide_asn_graphs(), st.integers(min_value=0, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_wide_asns_match_the_reference_over_any_split(self, graph, split_seed):
        engine = PathEngine(compile_topology(graph))
        asns = engine.topology.asns
        n = len(asns)
        split = split_seed % (n + 1)
        naive = [frozenset(iter_grc_length3_paths(graph, source)) for source in asns]
        for source, paths in zip(asns, naive):
            assert engine.paths(source) == paths
            assert engine.destinations(source) == {p[2] for p in paths}
        for method, expected in (
            (engine.counts_range, [len(paths) for paths in naive]),
            (
                engine.destination_counts_range,
                [len({p[2] for p in paths}) for paths in naive],
            ),
        ):
            merged = np.concatenate([method(0, split), method(split, n)])
            assert merged.tolist() == expected


class TestArtifactEquivalence:
    @given(small_topologies())
    @settings(max_examples=8, deadline=None)
    def test_mmap_view_indistinguishable_from_fresh_compile(self, topology):
        graph = topology.graph
        fresh = compile_topology(graph)
        with tempfile.TemporaryDirectory() as tmp:
            view = load_artifact(ArtifactStore(tmp).save(fresh))
            self._assert_indistinguishable(view, fresh)

    @staticmethod
    def _assert_indistinguishable(view, fresh):
        assert view.same_arrays(fresh)
        assert view.source_fingerprint == fresh.source_fingerprint
        from_view = PathEngine(view)
        from_fresh = PathEngine(fresh)
        n = fresh.n
        assert from_view.counts_range(0, n).tolist() == from_fresh.counts_range(0, n).tolist()
        assert (
            from_view.destination_counts_range(0, n).tolist()
            == from_fresh.destination_counts_range(0, n).tolist()
        )
        # The blocked range sweep agrees too, for an uneven split point.
        split = max(1, n // 3)
        assert (
            from_view.counts_range(0, split).tolist()
            == from_fresh.counts_range(0, split).tolist()
        )
        assert (
            from_view.destination_counts_range(split, n).tolist()
            == from_fresh.destination_counts_range(split, n).tolist()
        )

"""Property-based tests for the path-diversity layer and PAN forwarding."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreements import enumerate_mutuality_agreements
from repro.core import path_engine_for
from repro.paths.ma_paths import build_ma_path_index
from repro.paths.metrics import EmpiricalCDF
from repro.routing import ForwardingEngine, Packet, PathAwareNetwork
from repro.topology import generate_topology


@st.composite
def small_topologies(draw):
    """Small random Internet-like topologies (bounded for test speed)."""
    seed = draw(st.integers(min_value=0, max_value=200))
    num_tier2 = draw(st.integers(min_value=3, max_value=8))
    num_tier3 = draw(st.integers(min_value=5, max_value=20))
    num_stubs = draw(st.integers(min_value=10, max_value=40))
    return generate_topology(
        num_tier1=3,
        num_tier2=num_tier2,
        num_tier3=num_tier3,
        num_stubs=num_stubs,
        seed=seed,
    )


class TestPathProperties:
    @given(small_topologies())
    @settings(max_examples=15, deadline=None)
    def test_grc_paths_are_link_connected_and_conforming(self, topology):
        graph = topology.graph
        for source in list(graph)[:15]:
            for path in path_engine_for(graph).paths(source):
                assert graph.has_link(path[0], path[1])
                assert graph.has_link(path[1], path[2])
                customers = graph.customers(path[1])
                assert path[0] in customers or path[2] in customers

    @given(small_topologies())
    @settings(max_examples=15, deadline=None)
    def test_ma_paths_are_disjoint_from_grc_paths(self, topology):
        graph = topology.graph
        index = build_ma_path_index(list(enumerate_mutuality_agreements(graph)))
        for source in list(graph)[:15]:
            grc = path_engine_for(graph).paths(source)
            assert not (index.direct_paths(source) & grc)

    @given(small_topologies())
    @settings(max_examples=10, deadline=None)
    def test_every_ma_path_becomes_forwardable_once_agreements_applied(self, topology):
        graph = topology.graph
        agreements = list(enumerate_mutuality_agreements(graph))
        network = PathAwareNetwork(graph)
        network.authorize_grc_segments()
        for agreement in agreements:
            network.apply_agreement(agreement)
        engine = ForwardingEngine(network)
        index = build_ma_path_index(agreements)
        checked = 0
        for source in list(graph):
            for path in list(index.all_paths(source))[:5]:
                assert engine.forward(Packet(path=path)).delivered
                checked += 1
            if checked > 60:
                break

    @given(small_topologies())
    @settings(max_examples=10, deadline=None)
    def test_top_n_path_counts_are_monotone_in_n(self, topology):
        graph = topology.graph
        index = build_ma_path_index(list(enumerate_mutuality_agreements(graph)))
        for source in list(graph)[:10]:
            counts = [len(index.top_n_paths(source, n, graph)) for n in (0, 1, 2, 5, 50)]
            assert counts == sorted(counts)


class TestCDFProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=60
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_cdf_is_monotone_and_normalized(self, values):
        cdf = EmpiricalCDF(tuple(values))
        xs, ys = cdf.series()
        assert list(ys) == sorted(ys)
        if values:
            assert ys[-1] == 1.0
            assert cdf.at(cdf.maximum) == 1.0
            assert cdf.fraction_above(cdf.maximum) == 0.0

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_fraction_above_plus_at_equals_one(self, values, threshold):
        cdf = EmpiricalCDF(tuple(values))
        assert cdf.at(threshold) + cdf.fraction_above(threshold) == 1.0

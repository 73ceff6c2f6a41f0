"""The column MA path index answers every query exactly like the dict/set oracle.

:mod:`repro.reference` keeps the one-tuple-per-path index the column
index replaced.  Both are built from the same agreements and compared
with ``==`` on direct, indirect, all and top-n paths, ``new_ma_paths``,
the per-AS diversity records and the pair-metric records of both
metrics (geodistance over embeddings with 1-3 points per link, where
some links have none or an empty tuple, and bandwidth).  The inputs
cover what enumerated MAs never produce: repeated and overlapping
agreements between the same parties, offers of customers (whose
segments are GRC-conforming), ASNs at or above 2**31, empty agreement
lists and ASes without rows.  The §III-B3 extension counts, a closed
form over the column index, are compared with the oracle that builds
one extension agreement per (segment, peer) pair on the same inputs.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.agreements import enumerate_mutuality_agreements, figure1_mutuality_agreement
from repro.agreements.agreement import AccessOffer, Agreement
from repro.core import path_engine_for
from repro.paths.diversity import analyze_as
from repro.paths.extensions import analyze_extension_diversity
from repro.paths.ma_paths import build_ma_path_index, new_ma_paths
from repro.paths.metrics import summarize
from repro.paths.pair_metrics import (
    BANDWIDTH,
    GEODISTANCE,
    analyze_bandwidth,
    analyze_geodistance,
)
from repro.topology import degree_gravity_capacities, figure1_topology, generate_topology
from repro.topology.caida import dump_as_rel_lines, parse_as_rel_lines
from repro.topology.geography import SyntheticGeographyGenerator

TOP_N = (0, 1, 2, 5, 50)
#: Shifts generated ASNs to 4,200,000,001 and up (beyond 2**31).
ASN32_OFFSET = 4_200_000_000
#: An ASN no generated topology uses.
ABSENT_ASN = 99_999


def relabelled(graph, offset):
    """The same topology with every ASN shifted by ``offset``."""
    records = (line.split("|") for line in dump_as_rel_lines(graph) if not line.startswith("#"))
    return parse_as_rel_lines(
        f"{int(first) + offset}|{int(second) + offset}|{code}" for first, second, code in records
    )


@st.composite
def graphs(draw):
    """Small generated topologies; few ASes per tier make count ties common."""
    graph = generate_topology(
        num_tier1=draw(st.integers(2, 4)),
        num_tier2=draw(st.integers(2, 7)),
        num_tier3=draw(st.integers(2, 12)),
        num_stubs=draw(st.integers(0, 25)),
        seed=draw(st.integers(0, 500)),
    ).graph
    return relabelled(graph, ASN32_OFFSET) if draw(st.booleans()) else graph


@st.composite
def arbitrary_agreements(draw):
    """A graph and agreements over its links, repeated and overlapping.

    Each party may offer any subset of its providers, peers and
    customers; some agreements then appear again, as the same object or
    as an equal copy, and the list is shuffled.
    """
    graph = draw(graphs())
    links = sorted((a, b) for a in graph for b in graph.neighbors(a) if a < b)

    def offer(owner, other):
        def subset(group):
            choices = sorted(group - {other})
            return draw(st.sets(st.sampled_from(choices))) if choices else ()

        return AccessOffer.of(
            providers=subset(graph.providers(owner)),
            peers=subset(graph.peers(owner)),
            customers=subset(graph.customers(owner)),
        )

    pairs = draw(st.lists(st.sampled_from(links), max_size=10))
    agreements = [Agreement(x, y, offer(x, y), offer(y, x)) for x, y in pairs]
    if agreements:
        agreements += draw(st.lists(st.sampled_from(agreements), max_size=4))
        copies = draw(st.lists(st.sampled_from(agreements), max_size=2))
        agreements += [dataclasses.replace(agreement) for agreement in copies]
    return graph, draw(st.permutations(agreements))


def embeddings(graph):
    """Synthetic embeddings (1-3 points per link) where some links lose their points.

    A dropped link has no entry or an empty tuple; both fall back to
    the midpoint of the two AS centres.
    """

    @st.composite
    def embedded(draw):
        embedding = SyntheticGeographyGenerator(seed=draw(st.integers(0, 1000))).embed(graph)
        links = sorted(embedding.link_locations, key=sorted)
        dropped = draw(st.lists(st.sampled_from(links), unique=True)) if links else []
        for link in dropped:
            if draw(st.booleans()):
                del embedding.link_locations[link]
            else:
                embedding.link_locations[link] = ()
        return embedding

    return embedded()


def sorted_values(record):
    return dataclasses.replace(record, ma_values=tuple(sorted(record.ma_values)))


def assert_matches_oracle(graph, agreements, embedding):
    index = build_ma_path_index(agreements)
    oracle = reference.build_ma_path_index(agreements)
    assert {asn: len(rows) for asn, rows in index.direct.items()} == {
        asn: len(paths) for asn, paths in oracle.direct.items()
    }
    assert {asn: len(rows) for asn, rows in index.indirect.items()} == {
        asn: len(paths) for asn, paths in oracle.indirect.items()
    }
    engine = path_engine_for(graph)
    for asn in [*graph, ABSENT_ASN]:
        assert index.direct_paths(asn) == oracle.direct_paths(asn)
        assert index.indirect_paths(asn) == oracle.indirect_paths(asn)
        assert index.all_paths(asn) == oracle.all_paths(asn)
        for n in TOP_N:
            assert index.top_n_paths(asn, n) == oracle.top_n_paths(asn, n)
    for asn in graph:
        for n in TOP_N:
            assert index.top_n_paths(asn, n, graph) == oracle.top_n_paths(asn, n, graph)
        for direct_only in (False, True):
            assert new_ma_paths(
                graph, index, asn, directly_gained_only=direct_only
            ) == reference.new_ma_paths(graph, oracle, asn, directly_gained_only=direct_only)
        assert analyze_as(
            graph, index, asn, top_n_values=TOP_N, engine=engine
        ) == reference.analyze_as(graph, oracle, asn, top_n_values=TOP_N, engine=engine)

    capacities = degree_gravity_capacities(graph)
    for metric, analyze, model, value_of_path in (
        (GEODISTANCE, analyze_geodistance, embedding, embedding.path_geodistance),
        (BANDWIDTH, analyze_bandwidth, capacities, capacities.path_bandwidth),
    ):
        records = analyze(
            graph, model, index=index, sample_size=len(graph), engine=engine
        ).records
        expected = reference.analyze_pairs(
            graph,
            metric,
            value_of_path,
            index=oracle,
            sample_size=len(graph),
            seed=0,
            engine=engine,
        ).records
        assert [sorted_values(r) for r in records] == [sorted_values(r) for r in expected]


class TestColumnIndexMatchesOracle:
    @given(graphs(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_enumerated_agreements(self, graph, data):
        agreements = list(enumerate_mutuality_agreements(graph))
        assert_matches_oracle(graph, agreements, data.draw(embeddings(graph)))

    @given(arbitrary_agreements(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_repeated_overlapping_and_customer_offers(self, drawn, data):
        graph, agreements = drawn
        assert_matches_oracle(graph, agreements, data.draw(embeddings(graph)))

    @given(graphs(), st.data())
    @settings(max_examples=5, deadline=None)
    def test_no_agreements(self, graph, data):
        assert_matches_oracle(graph, [], data.draw(embeddings(graph)))


def assert_extensions_match_oracle(graph, agreements, samples):
    extensions = reference.enumerate_extension_agreements(graph, agreements)
    oracle = reference.build_extension_path_index(extensions)
    for sample in samples:
        expected = summarize([oracle.count(asn) for asn in sample])
        expected["num_extension_agreements"] = float(len(extensions))
        assert analyze_extension_diversity(graph, agreements, sample) == expected


def drawn_samples(data, graph):
    """Every AS, each AS alone (no peers, no rows), and a drawn sample."""
    ases = sorted(graph)
    drawn = data.draw(st.lists(st.sampled_from(ases), min_size=1, max_size=12))
    return [tuple(ases), *((asn,) for asn in ases), tuple(drawn)]


class TestExtensionCountsMatchOracle:
    def test_figure1_fixture(self):
        graph = figure1_topology()
        samples = [tuple(sorted(graph)), *((asn,) for asn in graph)]
        for agreements in (
            list(enumerate_mutuality_agreements(graph)),
            [figure1_mutuality_agreement(graph)] * 2,
            [],
        ):
            assert_extensions_match_oracle(graph, agreements, samples)

    @given(graphs(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_enumerated_agreements(self, graph, data):
        agreements = list(enumerate_mutuality_agreements(graph))
        assert_extensions_match_oracle(graph, agreements, drawn_samples(data, graph))

    @given(arbitrary_agreements(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_repeated_overlapping_and_customer_offers(self, drawn, data):
        graph, agreements = drawn
        assert_extensions_match_oracle(graph, agreements, drawn_samples(data, graph))

    @given(graphs(), st.data())
    @settings(max_examples=5, deadline=None)
    def test_no_agreements(self, graph, data):
        assert_extensions_match_oracle(graph, [], drawn_samples(data, graph))

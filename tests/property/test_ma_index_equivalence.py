"""The column MA path index answers every query exactly like the dict/set oracle.

:mod:`repro.reference` keeps the one-tuple-per-path index the column
index replaced.  Both are built from the same agreements and compared
with ``==`` on direct, indirect, all and top-n paths, ``new_ma_paths``,
the per-AS diversity records and the pair-metric records.  The inputs
cover what enumerated MAs never produce: repeated and overlapping
agreements between the same parties, offers of customers (whose
segments are GRC-conforming), ASNs at or above 2**31, empty agreement
lists and ASes without rows.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.agreements import enumerate_mutuality_agreements
from repro.agreements.agreement import AccessOffer, Agreement
from repro.core import path_engine_for
from repro.paths.diversity import analyze_as
from repro.paths.ma_paths import build_ma_path_index, new_ma_paths
from repro.paths.pair_metrics import BANDWIDTH, analyze_bandwidth
from repro.topology import degree_gravity_capacities, generate_topology
from repro.topology.caida import dump_as_rel_lines, parse_as_rel_lines

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


def sorted_values(record):
    return dataclasses.replace(record, ma_values=tuple(sorted(record.ma_values)))


def assert_matches_oracle(graph, agreements):
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
    records = analyze_bandwidth(
        graph, capacities, index=index, sample_size=len(graph), engine=engine
    ).records
    expected = reference.analyze_pairs(
        graph,
        BANDWIDTH,
        capacities.path_bandwidth,
        index=oracle,
        sample_size=len(graph),
        seed=0,
        engine=engine,
    ).records
    assert [sorted_values(r) for r in records] == [sorted_values(r) for r in expected]


class TestColumnIndexMatchesOracle:
    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_enumerated_agreements(self, graph):
        assert_matches_oracle(graph, list(enumerate_mutuality_agreements(graph)))

    @given(arbitrary_agreements())
    @settings(max_examples=60, deadline=None)
    def test_repeated_overlapping_and_customer_offers(self, drawn):
        graph, agreements = drawn
        assert_matches_oracle(graph, agreements)

    @given(graphs())
    @settings(max_examples=5, deadline=None)
    def test_no_agreements(self, graph):
        assert_matches_oracle(graph, [])

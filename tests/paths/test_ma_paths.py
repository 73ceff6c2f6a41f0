"""Unit tests for MA-created paths and the per-AS path index."""

import dataclasses
from pathlib import Path

import pytest

from repro import reference
from repro.agreements import enumerate_mutuality_agreements, figure1_mutuality_agreement
from repro.agreements.agreement import AccessOffer, Agreement
from repro.paths.grc import grc_length3_paths
from repro.paths.ma_paths import (
    MAPathIndex,
    agreement_paths,
    build_ma_path_index,
    new_ma_paths,
)
from repro.paths.pair_metrics import (
    BANDWIDTH,
    GEODISTANCE,
    analyze_bandwidth,
    analyze_geodistance,
)
from repro.topology import AS_A, AS_B, AS_C, AS_D, AS_E, AS_F, AS_G, figure1_topology
from repro.topology.bandwidth import degree_gravity_capacities
from repro.topology.caida import load_as_rel
from repro.topology.geography import SyntheticGeographyGenerator

GOLDEN_DIR = Path(__file__).parents[1] / "golden"


@pytest.fixture()
def graph():
    return figure1_topology()


@pytest.fixture()
def index(graph):
    return build_ma_path_index(list(enumerate_mutuality_agreements(graph)))


class TestAgreementPaths:
    def test_figure1_agreement_paths(self, graph):
        agreement = figure1_mutuality_agreement(graph)
        gained = agreement_paths(agreement)
        assert gained[AS_D] == {(AS_D, AS_E, AS_B), (AS_D, AS_E, AS_F)}
        assert gained[AS_E] == {(AS_E, AS_D, AS_A)}
        # Indirect gainers: the targets of the offered segments.
        assert gained[AS_B] == {(AS_B, AS_E, AS_D)}
        assert gained[AS_F] == {(AS_F, AS_E, AS_D)}
        assert gained[AS_A] == {(AS_A, AS_D, AS_E)}


class TestMAPathIndex:
    def test_direct_paths_of_d(self, index, graph):
        direct = index.direct_paths(AS_D)
        # D concludes MAs with its peers C and E.
        assert (AS_D, AS_E, AS_B) in direct
        assert (AS_D, AS_E, AS_F) in direct
        assert (AS_D, AS_C, AS_A) in direct
        assert (AS_D, AS_C, AS_G) not in direct  # customers are never MA targets

    def test_indirect_paths_of_b(self, index):
        indirect = index.indirect_paths(AS_B)
        assert (AS_B, AS_E, AS_D) in indirect
        assert (AS_B, AS_E, AS_F) in indirect

    def test_all_paths_is_union(self, index):
        for asn in (AS_A, AS_B, AS_C, AS_D, AS_E, AS_F):
            assert index.all_paths(asn) == index.direct_paths(asn) | index.indirect_paths(asn)

    def test_ma_paths_are_not_grc_conforming(self, index, graph):
        """Every directly gained MA path violates the GRC — that is what
        makes them additional."""
        for asn in graph:
            grc = grc_length3_paths(graph, asn)
            assert not (index.direct_paths(asn) & grc)

    def test_top_n_zero_is_empty(self, index, graph):
        assert index.top_n_paths(AS_D, 0, graph) == frozenset()

    def test_top_n_negative_rejected(self, index, graph):
        with pytest.raises(ValueError):
            index.top_n_paths(AS_D, -1, graph)

    def test_top_n_monotone_in_n(self, index, graph):
        top1 = index.top_n_paths(AS_D, 1, graph)
        top2 = index.top_n_paths(AS_D, 2, graph)
        top50 = index.top_n_paths(AS_D, 50, graph)
        assert top1 <= top2 <= top50
        assert top50 == index.direct_paths(AS_D)

    def test_top_1_picks_most_productive_agreement(self, index, graph):
        top1 = index.top_n_paths(AS_D, 1, graph)
        # The D–E agreement yields two paths for D, the D–C agreement only one.
        assert top1 == {(AS_D, AS_E, AS_B), (AS_D, AS_E, AS_F)}

    def test_new_ma_paths_excludes_grc(self, index, graph):
        for asn in (AS_D, AS_E, AS_C):
            new = new_ma_paths(graph, index, asn)
            assert not (new & grc_length3_paths(graph, asn))
            assert new == index.all_paths(asn) - grc_length3_paths(graph, asn)

    def test_new_ma_paths_directly_gained_only(self, index, graph):
        direct_only = new_ma_paths(graph, index, AS_B, directly_gained_only=True)
        everything = new_ma_paths(graph, index, AS_B)
        assert direct_only <= everything

    def test_as_without_agreements_has_no_direct_paths(self, index):
        from repro.topology import AS_H

        assert index.direct_paths(AS_H) == frozenset()


class TestColumnLayout:
    def test_empty_index(self):
        index = MAPathIndex()
        assert dict(index.direct) == {} and dict(index.indirect) == {}
        assert index.all_paths(AS_D) == frozenset()
        assert index.top_n_paths(AS_D, 5) == frozenset()
        assert build_ma_path_index([]).direct_paths(AS_D) == frozenset()

    def test_rows_are_per_as_ranges(self, index):
        for asn, rows in index.direct.items():
            assert isinstance(rows, range)
            assert len(rows) == len(index.direct_paths(asn))
        assert sum(map(len, index.indirect.values())) == sum(map(len, index.direct.values()))

    def test_repeated_path_belongs_to_its_last_agreement(self):
        """A1 offers {10}, A2 {11}, A3 {10}, all from party 2 to party 1.

        Path (1, 2, 10) is credited to A3, but its row stays where A1
        put it, ahead of A2's (1, 2, 11): the tied A3 ranks first.
        """
        agreements = [
            Agreement(1, 2, offer_y=AccessOffer.of(providers={target}))
            for target in (10, 11, 10)
        ]
        index = build_ma_path_index(agreements)
        assert index.top_n_paths(1, 1) == {(1, 2, 10)}
        assert index.top_n_paths(1, 1) == reference.build_ma_path_index(agreements).top_n_paths(
            1, 1
        )
        assert index.top_n_paths(1, 2) == {(1, 2, 10), (1, 2, 11)}

    def test_pair_metrics_on_32_bit_asns_match_the_oracle(self):
        graph = load_as_rel(GOLDEN_DIR / "asn32.as-rel.txt")
        agreements = list(enumerate_mutuality_agreements(graph))
        index = build_ma_path_index(agreements)
        oracle = reference.build_ma_path_index(agreements)
        assert index.direct_paths(4_200_000_004) == {(4_200_000_004, 4_200_000_003, 4_200_000_001)}
        embedding = SyntheticGeographyGenerator(seed=5).embed(graph)
        capacities = degree_gravity_capacities(graph)

        def sorted_values(record):
            return dataclasses.replace(record, ma_values=tuple(sorted(record.ma_values)))

        for metric, analyze, model, value_of_path in (
            (GEODISTANCE, analyze_geodistance, embedding, embedding.path_geodistance),
            (BANDWIDTH, analyze_bandwidth, capacities, capacities.path_bandwidth),
        ):
            records = analyze(graph, model, index=index, sample_size=5).records
            expected = reference.analyze_pairs(
                graph, metric, value_of_path, index=oracle, sample_size=5, seed=0
            ).records
            assert any(record.ma_values for record in records)
            assert list(map(sorted_values, records)) == list(map(sorted_values, expected))

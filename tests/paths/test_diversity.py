"""Unit tests for the path/destination diversity analysis (Figs. 3 and 4)."""

import pytest

from repro.agreements import enumerate_mutuality_agreements
from repro.paths.diversity import (
    analyze_as,
    analyze_path_diversity,
    sample_ases,
)
from repro.paths.grc import grc_length3_destinations, grc_length3_paths
from repro.paths.ma_paths import build_ma_path_index
from repro.topology import AS_D, AS_H, figure1_topology


@pytest.fixture(scope="module")
def figure1_index():
    graph = figure1_topology()
    return build_ma_path_index(list(enumerate_mutuality_agreements(graph)))


class TestSampleAses:
    def test_sample_size_respected(self, small_topology):
        sample = sample_ases(small_topology.graph, 10, seed=1)
        assert len(sample) == 10
        assert set(sample) <= small_topology.graph.ases

    def test_sample_larger_than_population_returns_all(self):
        graph = figure1_topology()
        assert len(sample_ases(graph, 100)) == len(graph)

    def test_sample_is_deterministic(self, small_topology):
        assert sample_ases(small_topology.graph, 10, seed=3) == sample_ases(
            small_topology.graph, 10, seed=3
        )


class TestAnalyzeAs:
    def test_grc_counts_match_direct_enumeration(self, figure1_index):
        graph = figure1_topology()
        record = analyze_as(graph, figure1_index, AS_D)
        assert record.path_counts["GRC"] == len(grc_length3_paths(graph, AS_D))
        assert record.destination_counts["GRC"] == len(
            grc_length3_destinations(graph, AS_D)
        )

    def test_scenario_ordering_is_monotone(self, figure1_index):
        """GRC ≤ Top1 ≤ Top5 ≤ Top50 ≤ MA* ≤ MA for paths and destinations."""
        graph = figure1_topology()
        ordering = ["GRC", "MA* (Top 1)", "MA* (Top 5)", "MA* (Top 50)", "MA*", "MA"]
        for asn in graph:
            record = analyze_as(graph, figure1_index, asn)
            path_counts = [record.path_counts[s] for s in ordering]
            destination_counts = [record.destination_counts[s] for s in ordering]
            assert path_counts == sorted(path_counts)
            assert destination_counts == sorted(destination_counts)

    def test_additional_paths_of_transit_as_positive(self, figure1_index):
        graph = figure1_topology()
        record = analyze_as(graph, figure1_index, AS_D)
        assert record.additional_paths > 0
        assert record.additional_destinations >= 0

    def test_stub_as_gains_only_indirect_paths(self, figure1_index):
        graph = figure1_topology()
        record = analyze_as(graph, figure1_index, AS_H)
        # H concludes no MA (it has no peers), so MA* equals GRC ...
        assert record.path_counts["MA*"] == record.path_counts["GRC"]
        # ... and any gain can only come from other ASes' agreements.
        assert record.path_counts["MA"] >= record.path_counts["MA*"]


class TestAnalyzePathDiversity:
    @pytest.fixture(scope="class")
    def result(self, medium_topology):
        return analyze_path_diversity(
            medium_topology.graph, sample_size=60, seed=5
        )

    def test_record_count_matches_sample(self, result):
        assert len(result.records) == 60

    def test_ma_dominates_grc_in_the_mean(self, result):
        assert result.path_cdf("MA").mean > result.path_cdf("GRC").mean
        assert result.destination_cdf("MA").mean >= result.destination_cdf("GRC").mean

    def test_most_gains_are_directly_negotiated(self, result):
        """The paper's observation that MA* is close to MA (relative to GRC)."""
        grc_mean = result.path_cdf("GRC").mean
        ma_star_mean = result.path_cdf("MA*").mean
        ma_mean = result.path_cdf("MA").mean
        assert ma_mean > grc_mean
        assert (ma_star_mean - grc_mean) >= 0.5 * (ma_mean - grc_mean)

    def test_top1_already_provides_gains(self, result):
        assert result.path_cdf("MA* (Top 1)").mean > result.path_cdf("GRC").mean

    def test_summaries_are_consistent(self, result):
        paths_summary = result.additional_path_summary()
        destination_summary = result.additional_destination_summary()
        assert paths_summary["count"] == 60
        assert paths_summary["max"] >= paths_summary["mean"] >= 0
        assert destination_summary["max"] >= destination_summary["mean"] >= 0

    def test_explicit_agreement_list_matches_default(self, medium_topology):
        agreements = list(enumerate_mutuality_agreements(medium_topology.graph))
        explicit = analyze_path_diversity(
            medium_topology.graph,
            index=build_ma_path_index(agreements),
            sample_size=20,
            seed=9,
        )
        default = analyze_path_diversity(medium_topology.graph, sample_size=20, seed=9)
        for left, right in zip(explicit.records, default.records):
            assert left.path_counts == right.path_counts

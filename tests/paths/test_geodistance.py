"""Unit tests for the geodistance analysis (Fig. 5)."""

import pytest

from repro.agreements import enumerate_mutuality_agreements
from repro.paths.geodistance import (
    PairGeodistanceRecord,
    analyze_geodistance,
    path_geodistances,
)
from repro.reference import iter_grc_length3_paths
from repro.topology import figure1_topology
from repro.topology.geography import SyntheticGeographyGenerator


class TestPairRecord:
    def test_counting_against_thresholds(self):
        record = PairGeodistanceRecord(
            source=1,
            destination=2,
            grc_min=100.0,
            grc_median=200.0,
            grc_max=300.0,
            ma_distances=(50.0, 150.0, 250.0, 400.0),
        )
        assert record.paths_below_grc_min == 1
        assert record.paths_below_grc_median == 2
        assert record.paths_below_grc_max == 3
        assert record.best_ma_distance == 50.0
        assert record.relative_reduction == pytest.approx(0.5)

    def test_no_reduction_when_ma_paths_are_worse(self):
        record = PairGeodistanceRecord(
            source=1,
            destination=2,
            grc_min=100.0,
            grc_median=200.0,
            grc_max=300.0,
            ma_distances=(150.0,),
        )
        assert record.relative_reduction is None

    def test_no_ma_paths(self):
        record = PairGeodistanceRecord(
            source=1,
            destination=2,
            grc_min=100.0,
            grc_median=100.0,
            grc_max=100.0,
            ma_distances=(),
        )
        assert record.paths_below_grc_min == 0
        assert record.best_ma_distance == float("inf")
        assert record.relative_reduction is None


class TestPathGeodistances:
    def test_grouping_by_pair(self):
        graph = figure1_topology()
        embedding = SyntheticGeographyGenerator(seed=2).embed(graph)
        paths = set(iter_grc_length3_paths(graph, 8))  # from AS H
        grouped = path_geodistances(paths, embedding)
        assert all(key[0] == 8 for key in grouped)
        assert sum(len(v) for v in grouped.values()) == len(paths)
        for distances in grouped.values():
            assert all(d > 0.0 for d in distances)


class TestAnalyzeGeodistance:
    @pytest.fixture(scope="class")
    def analysis(self, medium_topology):
        embedding = SyntheticGeographyGenerator(seed=3).embed(medium_topology.graph)
        agreements = list(enumerate_mutuality_agreements(medium_topology.graph))
        return analyze_geodistance(
            medium_topology.graph,
            embedding,
            agreements=agreements,
            sample_size=25,
            seed=4,
        )

    def test_records_have_consistent_thresholds(self, analysis):
        assert analysis.records
        for record in analysis.records:
            assert record.grc_min <= record.grc_median <= record.grc_max

    def test_condition_counts_are_monotone(self, analysis):
        """A path below the GRC minimum is also below median and maximum."""
        for record in analysis.records:
            assert (
                record.paths_below_grc_min
                <= record.paths_below_grc_median
                <= record.paths_below_grc_max
            )

    def test_cdf_ordering_between_conditions(self, analysis):
        at_least_one_min = analysis.fraction_of_pairs_improving("min", 1)
        at_least_one_max = analysis.fraction_of_pairs_improving("max", 1)
        assert at_least_one_min <= at_least_one_max

    def test_some_pairs_improve(self, analysis):
        """MAs shorten the best path for a nontrivial share of AS pairs.

        The paper reports ≈50% on the CAIDA topology; the smaller synthetic
        topology used in tests reaches a lower but still substantial share.
        """
        assert analysis.fraction_of_pairs_improving("min", 1) > 0.2

    def test_reduction_cdf_values_in_unit_interval(self, analysis):
        cdf = analysis.reduction_cdf()
        if cdf.count:
            assert cdf.minimum >= 0.0
            assert cdf.maximum <= 1.0

    def test_count_cdf_sizes_match_record_count(self, analysis):
        assert analysis.count_cdf("min").count == len(analysis.records)

    def test_empty_result_fraction_is_zero(self):
        from repro.paths.geodistance import GeodistanceResult

        assert GeodistanceResult().fraction_of_pairs_improving("min", 1) == 0.0

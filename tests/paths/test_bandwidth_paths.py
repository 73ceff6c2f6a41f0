"""Unit tests for the bandwidth analysis (Fig. 6)."""

import pytest

from repro.agreements import enumerate_mutuality_agreements
from repro.paths.bandwidth import (
    PairBandwidthRecord,
    analyze_bandwidth,
    path_bandwidths,
)
from repro.reference import iter_grc_length3_paths
from repro.topology import degree_gravity_capacities, figure1_topology


class TestPairRecord:
    def test_counting_against_thresholds(self):
        record = PairBandwidthRecord(
            source=1,
            destination=2,
            grc_min=10.0,
            grc_median=20.0,
            grc_max=30.0,
            ma_bandwidths=(5.0, 15.0, 25.0, 60.0),
        )
        assert record.paths_above_grc_max == 1
        assert record.paths_above_grc_median == 2
        assert record.paths_above_grc_min == 3
        assert record.best_ma_bandwidth == 60.0
        assert record.relative_increase == pytest.approx(1.0)

    def test_no_increase_when_ma_paths_are_worse(self):
        record = PairBandwidthRecord(
            source=1,
            destination=2,
            grc_min=10.0,
            grc_median=20.0,
            grc_max=30.0,
            ma_bandwidths=(25.0,),
        )
        assert record.relative_increase is None

    def test_no_ma_paths(self):
        record = PairBandwidthRecord(
            source=1,
            destination=2,
            grc_min=10.0,
            grc_median=10.0,
            grc_max=10.0,
            ma_bandwidths=(),
        )
        assert record.best_ma_bandwidth == 0.0
        assert record.relative_increase is None


class TestPathBandwidths:
    def test_grouping_by_pair(self):
        graph = figure1_topology()
        capacities = degree_gravity_capacities(graph)
        paths = set(iter_grc_length3_paths(graph, 8))
        grouped = path_bandwidths(paths, capacities)
        assert sum(len(v) for v in grouped.values()) == len(paths)
        for values in grouped.values():
            assert all(v > 0.0 for v in values)


class TestAnalyzeBandwidth:
    @pytest.fixture(scope="class")
    def analysis(self, medium_topology):
        capacities = degree_gravity_capacities(medium_topology.graph)
        agreements = list(enumerate_mutuality_agreements(medium_topology.graph))
        return analyze_bandwidth(
            medium_topology.graph,
            capacities,
            agreements=agreements,
            sample_size=25,
            seed=4,
        )

    def test_records_have_consistent_thresholds(self, analysis):
        assert analysis.records
        for record in analysis.records:
            assert record.grc_min <= record.grc_median <= record.grc_max

    def test_condition_counts_are_monotone(self, analysis):
        """A path above the GRC maximum is also above median and minimum."""
        for record in analysis.records:
            assert (
                record.paths_above_grc_max
                <= record.paths_above_grc_median
                <= record.paths_above_grc_min
            )

    def test_cdf_ordering_between_conditions(self, analysis):
        above_max = analysis.fraction_of_pairs_improving("max", 1)
        above_min = analysis.fraction_of_pairs_improving("min", 1)
        assert above_max <= above_min

    def test_some_pairs_gain_bandwidth(self, analysis):
        """The paper reports ≈35% of pairs beating the GRC maximum; the
        smaller synthetic test topology reaches a lower but clear share."""
        assert analysis.fraction_of_pairs_improving("max", 1) > 0.1

    def test_increase_cdf_is_positive(self, analysis):
        cdf = analysis.increase_cdf()
        if cdf.count:
            assert cdf.minimum > 0.0

    def test_empty_result_fraction_is_zero(self):
        from repro.paths.bandwidth import BandwidthResult

        assert BandwidthResult().fraction_of_pairs_improving("max", 1) == 0.0

"""Tests for the Fig. 3–6 experiment harnesses (reduced sizes)."""

import pytest

from repro.agreements import enumerate_mutuality_agreements
from repro.experiments.context import DiversityContext
from repro.experiments.fig3_paths import PathDiversityConfig, run_fig3
from repro.experiments.fig4_destinations import run_fig4
from repro.experiments.fig5_geodistance import Fig5Config, run_fig5
from repro.experiments.fig6_bandwidth import Fig6Config, run_fig6

SMALL = PathDiversityConfig(
    num_tier1=4, num_tier2=12, num_tier3=40, num_stubs=120, sample_size=40, seed=13
)


@pytest.fixture(scope="module")
def fig3_result():
    return run_fig3(SMALL)


@pytest.fixture(scope="module")
def fig4_result():
    return run_fig4(SMALL)


@pytest.fixture(scope="module")
def fig5_result():
    return run_fig5(Fig5Config(diversity=SMALL, pair_sample_size=20))


@pytest.fixture(scope="module")
def fig6_result():
    return run_fig6(Fig6Config(diversity=SMALL, pair_sample_size=20))


class TestDiversityContext:
    def test_build_constructs_no_agreement_objects(self, agreement_inits):
        context = DiversityContext.build(SMALL)
        assert agreement_inits == []
        expected = len(list(enumerate_mutuality_agreements(context.topology.graph)))
        assert context.index.num_agreements == expected == len(agreement_inits) > 0


class TestFig3:
    def test_sample_size_respected(self, fig3_result):
        assert len(fig3_result.diversity.records) == 40

    def test_ma_beats_grc(self, fig3_result):
        cdf_grc = fig3_result.diversity.path_cdf("GRC")
        cdf_ma = fig3_result.diversity.path_cdf("MA")
        assert cdf_ma.mean > cdf_grc.mean

    def test_report_and_comparisons_render(self, fig3_result):
        assert "GRC" in fig3_result.report()
        assert len(fig3_result.comparisons()) >= 3

    def test_agreements_enumerated(self, fig3_result):
        assert fig3_result.num_agreements > 0


class TestFig4:
    def test_destination_ordering(self, fig4_result):
        grc = fig4_result.diversity.destination_cdf("GRC")
        ma = fig4_result.diversity.destination_cdf("MA")
        assert ma.mean >= grc.mean

    def test_report_and_comparisons_render(self, fig4_result):
        assert "destinations" in fig4_result.report()
        assert len(fig4_result.comparisons()) >= 2


class TestFig5:
    def test_records_exist(self, fig5_result):
        assert fig5_result.analysis.records

    def test_condition_ordering(self, fig5_result):
        result = fig5_result.analysis
        assert result.fraction_of_pairs_improving(
            "min", 1
        ) <= result.fraction_of_pairs_improving("max", 1)

    def test_report_and_comparisons_render(self, fig5_result):
        assert "GRC min" in fig5_result.report()
        assert len(fig5_result.comparisons()) == 3


class TestFig6:
    def test_records_exist(self, fig6_result):
        assert fig6_result.analysis.records

    def test_condition_ordering(self, fig6_result):
        result = fig6_result.analysis
        assert result.fraction_of_pairs_improving(
            "max", 1
        ) <= result.fraction_of_pairs_improving("min", 1)

    def test_report_and_comparisons_render(self, fig6_result):
        assert "GRC max" in fig6_result.report()
        assert len(fig6_result.comparisons()) == 2


def test_fig5_and_fig6_headline_metrics_are_pinned(fig5_result, fig6_result):
    # Exact values (``==`` on floats): any change in pair grouping,
    # threshold comparison or gain arithmetic moves at least one.
    assert fig5_result.metrics() == {
        "num_agreements": 1392,
        "pairs_below_grc_min": 0.39453924914675764,
        "pairs_below_grc_min_5": 0.058703071672355,
        "median_reduction": 0.17921504462917495,
    }
    assert fig6_result.metrics() == {
        "num_agreements": 1392,
        "pairs_above_grc_max": 0.24505119453924917,
        "pairs_above_grc_min": 0.27713310580204775,
        "median_increase": 0.3023255813953488,
    }

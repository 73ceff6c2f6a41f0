"""Unit tests for the CDF / statistics helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paths.metrics import EmpiricalCDF, summarize


class TestEmpiricalCDF:
    def test_values_are_sorted(self):
        cdf = EmpiricalCDF((3.0, 1.0, 2.0))
        assert cdf.values == (1.0, 2.0, 3.0)

    def test_at(self):
        cdf = EmpiricalCDF((1.0, 2.0, 3.0, 4.0))
        assert cdf.at(0.5) == 0.0
        assert cdf.at(1.0) == 0.25
        assert cdf.at(2.5) == 0.5
        assert cdf.at(4.0) == 1.0

    def test_fraction_above(self):
        cdf = EmpiricalCDF((1.0, 2.0, 3.0, 4.0))
        assert cdf.fraction_above(2.0) == 0.5
        assert cdf.fraction_above(0.0) == 1.0
        assert cdf.fraction_above(4.0) == 0.0

    def test_fraction_at_least(self):
        cdf = EmpiricalCDF((1.0, 2.0, 3.0, 4.0))
        assert cdf.fraction_at_least(2.0) == 0.75
        assert cdf.fraction_at_least(5.0) == 0.0

    def test_quantile_and_median(self):
        cdf = EmpiricalCDF((1.0, 2.0, 3.0, 4.0))
        assert cdf.median == pytest.approx(2.5)
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 4.0

    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=-(2**63), max_value=2**63),
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 0, 1, -1]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_values_are_python_sorted_floats(self, values):
        expected = tuple(sorted(float(v) for v in values))
        cdf = EmpiricalCDF(tuple(values))
        assert cdf.values == expected
        assert all(type(v) is float for v in cdf.values)
        # The sort is stable: tied ±0.0 samples keep their input order.
        assert [math.copysign(1.0, v) for v in cdf.values] == [
            math.copysign(1.0, v) for v in expected
        ]

    def test_nan_samples_are_rejected(self):
        with pytest.raises(ValueError, match="sample 1 is nan"):
            EmpiricalCDF((1.0, float("nan"), 0.5))

    def test_quantile_out_of_range(self):
        with pytest.raises(ValueError):
            EmpiricalCDF((1.0,)).quantile(1.5)

    def test_empty_cdf_behaviour(self):
        cdf = EmpiricalCDF(())
        assert cdf.count == 0
        assert cdf.at(1.0) == 0.0
        assert cdf.fraction_above(1.0) == 0.0
        assert cdf.mean == 0.0
        with pytest.raises(ValueError):
            _ = cdf.maximum
        with pytest.raises(ValueError):
            cdf.quantile(0.5)

    def test_min_max_mean(self):
        cdf = EmpiricalCDF((5.0, 1.0, 3.0))
        assert cdf.minimum == 1.0
        assert cdf.maximum == 5.0
        assert cdf.mean == pytest.approx(3.0)

    def test_series_is_monotone(self):
        cdf = EmpiricalCDF((4.0, 2.0, 7.0, 1.0))
        xs, ys = cdf.series()
        assert list(xs) == sorted(xs)
        assert list(ys) == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_series_of_empty_cdf(self):
        assert EmpiricalCDF(()).series() == ((), ())


class TestSummarize:
    def test_summary_values(self):
        summary = summarize([1.0, 2.0, 3.0, 10.0])
        assert summary["count"] == 4.0
        assert summary["mean"] == 4.0
        assert summary["median"] == 2.5
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0

    def test_empty_summary(self):
        summary = summarize([])
        assert summary["count"] == 0.0
        assert summary["mean"] == 0.0

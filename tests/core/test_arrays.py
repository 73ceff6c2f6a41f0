"""Tests for the order-preserving array kernels.

The kernels underwrite the batched engines' bit-exactness contract, so
these tests compare against literal Python folds — not against
``np.sum`` — including the floating-point cases (non-associative
additions, signed zeros, infinities) where the distinction matters.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrays import (
    last_argmax,
    ordered_fold,
    running_maximum,
    sequential_sum,
)


def python_fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


class TestSequentialSum:
    def test_matches_left_to_right_fold_on_adversarial_floats(self):
        # Pairwise summation (np.sum) rounds these differently from a
        # left-to-right fold; the kernel must match the fold exactly.
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [rng.uniform(-1.0, 1.0, 64) * 10.0 ** rng.integers(-12, 12, 64)]
        )
        assert sequential_sum(values) == python_fold(values)

    def test_differs_from_pairwise_summation_somewhere(self):
        # Sanity check that the test above is non-vacuous: across many
        # rows, pairwise np.sum disagrees with the fold at least once.
        rng = np.random.default_rng(1)
        rows = rng.uniform(-1.0, 1.0, (200, 64)) * 10.0 ** rng.integers(
            -12, 12, (200, 64)
        )
        folds = np.array([python_fold(row) for row in rows])
        assert np.array_equal(sequential_sum(rows, axis=1), folds)
        assert not np.array_equal(rows.sum(axis=1), folds)

    def test_signed_zero_normalization(self):
        # A fold started from +0.0 can never return -0.0.
        result = sequential_sum(np.array([-0.0]))
        assert result == 0.0 and not np.signbit(result)

    def test_masked_zero_terms_are_neutral(self):
        values = np.array([0.1, 0.0, 0.2, 0.0, 0.3])
        assert sequential_sum(values) == python_fold([0.1, 0.2, 0.3])

    def test_empty_axis_sums_to_zero(self):
        assert np.array_equal(
            sequential_sum(np.empty((3, 0)), axis=1), np.zeros(3)
        )

    def test_axis_argument(self):
        rows = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(
            sequential_sum(rows, axis=0),
            np.array([python_fold(rows[:, j]) for j in range(4)]),
        )


_FOLD_VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.0, -1.0, 0.1]
    ),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300),
)


@st.composite
def fold_problems(draw):
    """An array, a fold axis and, often, unit dimensions after it.

    Trailing unit dimensions are the shapes on which ``np.add.reduce``
    folds pairwise; a lane of all ``-0.0`` checks the fold's ``+0.0``
    start.
    """
    ndim = draw(st.integers(min_value=1, max_value=4))
    axis = draw(st.integers(min_value=0, max_value=ndim - 1))
    shape = [draw(st.integers(min_value=1, max_value=4)) for _ in range(ndim)]
    shape[axis] = draw(st.integers(min_value=0, max_value=40))
    if draw(st.booleans()):
        shape[axis + 1 :] = [1] * (ndim - axis - 1)
    size = math.prod(shape)
    values = np.array(
        draw(st.lists(_FOLD_VALUES, min_size=size, max_size=size)), dtype=np.float64
    ).reshape(shape)
    if size and draw(st.booleans()):
        lane = tuple(draw(st.integers(0, extent - 1)) for extent in shape)
        lane = lane[:axis] + (slice(None),) + lane[axis + 1 :]
        values[lane] = -0.0
    return values, axis


def _assert_same_fold(folded, expected):
    """Bits equal on every lane; NaN exactly where the fold is NaN.

    Which operand's NaN an addition of two NaNs returns is left to the
    machine code (Python's float add and NumPy's loops order the
    operands differently), so only a NaN lane's NaN-ness is compared.
    """
    assert folded.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(folded), nan)
    assert np.array_equal(folded[~nan].view(np.int64), expected[~nan].view(np.int64))


def _spread(rng, shape):
    return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-12, 12, shape)


class TestOrderedFold:
    @given(problem=fold_problems())
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_the_python_fold_from_positive_zero(self, problem):
        values, axis = problem
        lanes = np.moveaxis(values, axis, -1)
        expected = np.empty(lanes.shape[:-1])
        for lane in np.ndindex(*lanes.shape[:-1]):
            expected[lane] = python_fold(lanes[lane].tolist())
        _assert_same_fold(ordered_fold(values, axis), expected)

    def test_unit_trailing_extent_folds_in_order_where_np_sum_does_not(self):
        # ``np.add.reduce`` is pairwise on these shapes.
        values = _spread(np.random.default_rng(3), (3, 200, 1))
        expected = np.array([[python_fold(values[row, :, 0].tolist())] for row in range(3)])
        _assert_same_fold(ordered_fold(values, axis=1), expected)
        assert not np.array_equal(values.sum(axis=1), expected)

    def test_outer_axis_matches_the_scan(self):
        values = _spread(np.random.default_rng(2), (5, 200, 21))
        _assert_same_fold(ordered_fold(values, axis=1), sequential_sum(values, axis=1))

    def test_transposed_input_folds_in_order(self):
        values = _spread(np.random.default_rng(4), (7, 200)).T
        expected = np.array([python_fold(values[:, lane].tolist()) for lane in range(7)])
        _assert_same_fold(ordered_fold(values, axis=0), expected)


class TestRunningMaximum:
    def test_matches_sequential_clamp(self):
        values = np.array([[-np.inf, 2.0, 1.0, np.inf, 3.0]])
        expected = values.copy()
        for index in range(1, values.shape[1]):
            expected[0, index] = max(expected[0, index], expected[0, index - 1])
        assert np.array_equal(running_maximum(values, axis=1), expected)


class TestLastArgmax:
    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([True, False, True, False], 2),
            ([False, True], 1),
            ([True], 0),
        ],
    )
    def test_ties_break_to_the_last_flag(self, flags, expected):
        assert last_argmax(np.array(flags)) == expected

    def test_batched_rows(self):
        flags = np.array([[True, True, False], [False, False, True]])
        assert np.array_equal(last_argmax(flags), np.array([1, 2]))

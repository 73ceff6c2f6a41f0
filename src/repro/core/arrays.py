"""Order-preserving array kernels shared by the batched engines.

The batched engines (:class:`~repro.core.path_engine.PathEngine`,
:class:`~repro.bargaining.engine.NegotiationEngine`) are contracted to
reproduce their naive per-instance reference paths *bit for bit*: seeded
experiment tables and simulation traces must not change when a consumer
switches to the vectorized path.  That rules out ``np.sum`` for
reductions — NumPy's pairwise summation reassociates floating-point
additions and rounds differently from the reference code's sequential
``total += term`` loops.

This module collects the small set of primitives that make exact
vectorization possible:

- :func:`sequential_sum` — a reduction with Python's left-to-right
  accumulation order (``ufunc.accumulate`` is a sequential scan, unlike
  ``ufunc.reduce`` which is pairwise along the innermost axis);
- :func:`ordered_fold` — the same fold over an axis that is not
  innermost, where ``ufunc.reduce`` adds whole slices in order;
- :func:`running_maximum` — a scan built from comparisons only, which
  is always exact;
- :func:`last_argmax` — tie-breaking toward the *last* maximal element,
  the vectorized form of "keep updating on ties" scan loops.

Everything operates on ``float64`` (or bool) arrays along the last
axis and is row-independent: applying a kernel to a subset of rows
yields the same values as applying it to the full batch.

Three integer helpers serve the CSR kernels that build the MA offers
and the MA path index: :func:`row_bounds` (row pointers from row
lengths), :func:`gather_rows` (CSR rows concatenated in a given order)
and :func:`chunk_ranges` (consecutive rows cut into bounded chunks).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np


def sequential_sum(terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum ``terms`` along ``axis`` in strict left-to-right order.

    Bit-identical to the Python fold ``total = 0.0; for t in terms:
    total += t`` — including the IEEE-754 signed-zero corner: a fold
    that starts from ``+0.0`` can never return ``-0.0``, so the scan
    result is re-rounded through a final ``+ 0.0``.  (``np.cumsum`` is a
    sequential scan; only ``np.sum``'s pairwise tree reassociates.)
    """
    terms = np.asarray(terms)
    if terms.shape[axis] == 0:
        shape = list(terms.shape)
        del shape[axis]
        return np.zeros(shape, dtype=terms.dtype)
    moved = np.moveaxis(terms, axis, -1)
    return np.cumsum(moved, axis=-1)[..., -1] + 0.0


def ordered_fold(terms: np.ndarray, axis: int) -> np.ndarray:
    """Fold ``terms`` along ``axis`` from ``+0.0`` in strict left-to-right order.

    Bit-identical to the Python fold ``total = 0.0; for t in terms:
    total += t`` per lane, like :func:`sequential_sum`, but one
    ``np.add.reduce`` call instead of a full scan.  That call is in
    order only when, in C order, the dimensions after ``axis`` span at
    least two elements: NumPy then keeps ``axis`` as the outer loop and
    adds one contiguous slice per step.  With fewer (``axis`` innermost,
    or only unit dimensions after it) NumPy folds pairwise, so those
    shapes take :func:`sequential_sum` instead.
    """
    terms = np.ascontiguousarray(terms)
    axis = axis % terms.ndim
    if math.prod(terms.shape[axis + 1 :]) < 2:
        return sequential_sum(terms, axis)
    return np.add.reduce(terms, axis=axis, initial=0.0)


def running_maximum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Left-to-right running maximum (the vectorized monotonic clamp).

    Exact by construction: a maximum is a comparison and a select, no
    rounding is involved.
    """
    return np.maximum.accumulate(values, axis=axis)


def last_argmax(flags: np.ndarray) -> np.ndarray:
    """Index of the *last* ``True`` along the last axis.

    ``np.argmax`` keeps the first maximal element; scan loops that keep
    updating on ties keep the last one.  Reversing the axis turns one
    into the other.  Rows without a set flag return the last index —
    callers are expected to guarantee at least one ``True`` per row.
    """
    flags = np.asarray(flags, dtype=bool)
    width = flags.shape[-1]
    return width - 1 - np.argmax(flags[..., ::-1], axis=-1)


#: Elements one step of a chunked CSR kernel handles at most, so its
#: temporaries stay bounded whatever the input size.
CHUNK_ROWS = 1 << 20


def row_bounds(lengths: np.ndarray) -> np.ndarray:
    """Row pointers of rows with ``lengths``: ``len(lengths) + 1`` int64 entries from 0."""
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return bounds


def gather_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The CSR rows ``rows`` of ``(indptr, indices)``, concatenated in that order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    bounds = row_bounds(lengths)
    at = np.repeat(starts - bounds[:-1], lengths)
    at += np.arange(bounds[-1], dtype=np.int64)
    return indices[at]


def chunk_ranges(bounds: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """Cut rows ``0 … len(bounds) - 2`` into consecutive ``[lo, hi)`` chunks.

    ``bounds`` are row pointers (:func:`row_bounds`); a chunk spans at
    most ``limit`` elements, or one row when that row alone is longer.
    """
    lo, rows = 0, len(bounds) - 1
    while lo < rows:
        end = int(np.searchsorted(bounds, bounds[lo] + limit, side="right")) - 1
        hi = min(max(end, lo + 1), rows)
        yield lo, hi
        lo = hi

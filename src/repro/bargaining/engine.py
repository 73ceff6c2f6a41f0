"""Batched evaluation of BOSCO bargaining games (§V) with array kernels.

This is the one BOSCO solver every workflow runs (``negotiate``, Fig. 2,
the sweep, the marketplace and ``repro serve``).  Its oracle is the
scalar solver in :mod:`repro.reference` —
:func:`~repro.reference.choice_probabilities`,
:func:`~repro.reference.response_lines` (Eqs. 14–17),
:func:`~repro.reference.compute_best_response` (Algorithm 1),
:meth:`~repro.reference.BargainingGame.find_equilibrium`, and
:func:`~repro.reference.expected_nash_product` /
:func:`~repro.reference.price_of_dishonesty` (Eqs. 19–20) — which runs one
trial at a time in pure Python.  Fig. 2 evaluates hundreds of random
choice-set trials per cardinality and the marketplace simulation
negotiates batches of agreements per billing epoch, so the
:class:`NegotiationEngine` here evaluates **batches** of bargaining-game
instances at once: ``(B, W+1)`` ``float64`` arrays of choices and
thresholds, batched best-response sweeps with convergence masks, and
vectorized Nash-product / Price-of-Dishonesty reductions.

Batches are mostly small.  A served request solves one cohort of about
ten trials, and rows leave the lockstep batch as they converge, so most
best responses see one to ten rows and about four active envelope
lines per row; numpy call overhead, not arithmetic, is their cost.  A
round is therefore a fixed number of numpy calls, whatever the batch.

What a row's choice sets fix is computed once per run of the dynamics
(one starting profile): its *claim geometry* (:func:`_claim_geometry`),
whether each opponent choice qualifies for each own choice and the
claim gap between them.  Each round then weighs that geometry by the
opponent's choice probabilities, halves the gap terms and folds the
opponent axis — one numpy call each, whatever the batch or ``W``.
:func:`_envelope` runs Algorithm 1 over the active lines of all rows
as one flat list.  A round in which rows converge or cycle compacts
the staying rows' geometry, profiles and cycle sets, so later rounds
touch active rows only.  Memory stays bounded at large batches (Fig. 2
at paper scale: 200 rows, ``W = 100``): :meth:`NegotiationEngine.solve`
runs row chunks whose geometry fits ``_GEOMETRY_ELEMENTS``, and the
envelope's crossing table is cut under ``_BLOCK_ELEMENTS``.  A row's
geometry, like its thresholds and its cycle set, is row state: rows
are independent, so chunks give the same bits as one batch.  The
public :meth:`NegotiationEngine.response_lines` and
:meth:`NegotiationEngine.best_responses` build the geometry of every
row they are given in one piece (``2 · B · C_opp · C_own`` elements);
their callers pass single rows or small batches.

Bit-exactness contract
----------------------

The engine is not "numerically close" to the reference path — it is
**bit-identical** on every instance, which is what lets
:class:`~repro.bargaining.mechanism.BoscoService` switch Fig. 2 and the
marketplace scenario onto it without changing a byte of seeded output.
Three rules make that possible (see :mod:`repro.core.arrays`):

1. every elementwise formula mirrors the reference expression tree
   operation for operation (NumPy ufuncs and Python floats share IEEE-754
   ``float64`` semantics, and separate ufunc passes cannot be fused);
2. every reduction runs in the reference's left-to-right order —
   :func:`~repro.core.arrays.sequential_sum` or
   :func:`~repro.core.arrays.ordered_fold` — never a pairwise
   ``np.sum`` along the innermost axis;
3. skipped loop iterations become masked ``0.0`` terms — adding ``+0.0``
   is exact — and tie-breaks reuse the reference comparison directions.

The uniform distributions of the paper get closed-form array kernels;
any other :class:`~repro.bargaining.distributions.UtilityDistribution`
falls back to an elementwise kernel that calls the distribution's own
``mass``/``partial_mean`` — slower, but exact by construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.bargaining.choices import ChoiceSet
from repro.bargaining.distributions import (
    JointUtilityDistribution,
    UniformUtilityDistribution,
    UtilityDistribution,
)
from repro.bargaining.strategy import StrategyProfile, ThresholdStrategy
from repro.core.arrays import (
    last_argmax,
    ordered_fold,
    running_maximum,
    sequential_sum,
)

_INF = float("inf")

#: Floating-point conditions the kernels meet on purpose: claim gaps
#: and weighted terms that overflow, ``∞ − ∞`` deltas and crossings of
#: parallel lines.  Each public entry point ignores them once per call.
_IGNORED = dict(divide="ignore", invalid="ignore", over="ignore")

#: Element budget of one block of the crossing table in
#: :meth:`NegotiationEngine.envelope_thresholds`.
_BLOCK_ELEMENTS = 1 << 16

#: Element budget of one party's claim geometry in a chunk of
#: :meth:`NegotiationEngine.solve`: its two planes hold
#: ``2 · rows · C_x · C_y`` float64 values.  A round's weighted terms
#: hold one more array of that size, and a round in which rows leave
#: copies the staying rows' geometry once.  A served request (10 rows,
#: ``W = 20``), Fig. 2's default batch (25 rows, ``W = 50``) and its
#: paper-scale ``W = 50`` batch (200 rows) each fit one chunk; the
#: paper-scale ``W = 100`` batch runs in two.
_GEOMETRY_ELEMENTS = 1 << 21


# ----------------------------------------------------------------------
# Distribution kernels
# ----------------------------------------------------------------------
class DistributionKernel:
    """Vectorized interval mass / partial mean of a utility distribution.

    Subclasses must be elementwise bit-identical to the distribution's
    scalar ``mass`` and ``partial_mean`` methods.
    """

    def __init__(self, distribution: UtilityDistribution) -> None:
        self.distribution = distribution
        self.lower = distribution.lower
        self.upper = distribution.upper

    def mass(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Elementwise ``distribution.mass(low, high)``."""
        raise NotImplementedError

    def partial_mean(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Elementwise ``distribution.partial_mean(low, high)``."""
        raise NotImplementedError


class UniformKernel(DistributionKernel):
    """Closed-form kernel for :class:`UniformUtilityDistribution`."""

    def __init__(self, distribution: UniformUtilityDistribution) -> None:
        super().__init__(distribution)
        # Same expression as UniformUtilityDistribution._density, so the
        # scalar and the array path multiply by the identical float.
        self._density = 1.0 / (distribution.high - distribution.low)

    def _clip(self, low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.maximum(low, self.distribution.low),
            np.minimum(high, self.distribution.high),
        )

    def mass(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        lo, hi = self._clip(low, high)
        return np.where(hi <= lo, 0.0, (hi - lo) * self._density)

    def partial_mean(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        lo, hi = self._clip(low, high)
        return np.where(hi <= lo, 0.0, self._density * (hi * hi - lo * lo) / 2.0)


class GenericKernel(DistributionKernel):
    """Elementwise fallback for distributions without a closed form.

    Loops in Python, calling the distribution's own scalar methods, so
    it is exact for *any* distribution at per-instance speed — the
    batched sweep structure above it still pays off because the
    equilibrium search and the rectangle reductions dominate.
    """

    @staticmethod
    def _apply(scalar_method, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        flat_lo, flat_hi = np.broadcast_arrays(low, high)
        out = np.empty(flat_lo.shape, dtype=np.float64)
        flat = out.reshape(-1)
        for position, (lo, hi) in enumerate(
            zip(flat_lo.reshape(-1), flat_hi.reshape(-1))
        ):
            flat[position] = scalar_method(float(lo), float(hi))
        return out

    def mass(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        return self._apply(self.distribution.mass, low, high)

    def partial_mean(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        return self._apply(self.distribution.partial_mean, low, high)


def kernel_for(distribution: UtilityDistribution) -> DistributionKernel:
    """The fastest exact kernel available for a distribution."""
    if isinstance(distribution, UniformUtilityDistribution):
        return UniformKernel(distribution)
    return GenericKernel(distribution)


# ----------------------------------------------------------------------
# Batches
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GameBatch:
    """``B`` bargaining-game instances under one joint distribution.

    All instances share the per-party choice-set cardinality so the
    choices pack into dense ``(B, W+1)`` arrays (column 0 is the cancel
    option ``−∞``).  The original :class:`ChoiceSet` objects are kept so
    equilibria can be materialized back into per-instance
    :class:`StrategyProfile` values without re-validating floats.
    """

    distribution: JointUtilityDistribution
    choices_x: np.ndarray
    choices_y: np.ndarray
    sets_x: tuple[ChoiceSet, ...]
    sets_y: tuple[ChoiceSet, ...]

    @classmethod
    def from_choice_sets(
        cls,
        distribution: JointUtilityDistribution,
        pairs: Sequence[tuple[ChoiceSet, ChoiceSet]],
    ) -> "GameBatch":
        """Pack per-trial choice-set pairs into one batch."""
        if not pairs:
            raise ValueError("a game batch needs at least one instance")
        sets_x = tuple(pair[0] for pair in pairs)
        sets_y = tuple(pair[1] for pair in pairs)
        for sets in (sets_x, sets_y):
            cardinalities = {len(choice_set) for choice_set in sets}
            if len(cardinalities) != 1:
                raise ValueError(
                    "all instances of a batch must share the choice-set "
                    f"cardinality, got {sorted(cardinalities)}"
                )
        return cls(
            distribution=distribution,
            choices_x=np.array([s.values for s in sets_x], dtype=np.float64),
            choices_y=np.array([s.values for s in sets_y], dtype=np.float64),
            sets_x=sets_x,
            sets_y=sets_y,
        )

    def __len__(self) -> int:
        return self.choices_x.shape[0]

    def rows(self, selector: slice) -> "GameBatch":
        """The sub-batch of a contiguous row range (views, no copies).

        Because every engine method is row-independent, solving a
        ``rows`` slice yields exactly the rows the full batch's solution
        would — this is what lets externally packed cohorts (several
        callers' trials concatenated into one batch) be unpacked into
        per-caller results that are bit-identical to solo runs.
        """
        return GameBatch(
            distribution=self.distribution,
            choices_x=self.choices_x[selector],
            choices_y=self.choices_y[selector],
            sets_x=self.sets_x[selector],
            sets_y=self.sets_y[selector],
        )


@dataclass
class BatchedEquilibria:
    """Equilibria of a :class:`GameBatch`, one row per instance.

    ``converged[i]`` mirrors the reference search outcome: ``False``
    means alternating best-response dynamics cycled (or ran out of
    iterations) from every starting profile, exactly the condition under
    which the per-instance path raises
    :class:`~repro.bargaining.strategy.EquilibriumError`.  ``iterations``
    and ``last_delta`` carry the diagnostics of the (last) dynamics run.
    """

    thresholds_x: np.ndarray
    thresholds_y: np.ndarray
    converged: np.ndarray
    start_index: np.ndarray
    iterations: np.ndarray
    last_delta: np.ndarray

    def rows(self, selector: slice) -> "BatchedEquilibria":
        """The equilibria of a contiguous row range (views, no copies)."""
        return BatchedEquilibria(
            thresholds_x=self.thresholds_x[selector],
            thresholds_y=self.thresholds_y[selector],
            converged=self.converged[selector],
            start_index=self.start_index[selector],
            iterations=self.iterations[selector],
            last_delta=self.last_delta[selector],
        )

    def profile(self, batch: GameBatch, index: int) -> StrategyProfile:
        """Materialize instance ``index`` as a per-instance profile."""
        if not self.converged[index]:
            raise ValueError(f"instance {index} did not converge")
        return StrategyProfile(
            strategy_x=ThresholdStrategy(
                choices=batch.sets_x[index],
                thresholds=tuple(float(v) for v in self.thresholds_x[index]),
            ),
            strategy_y=ThresholdStrategy(
                choices=batch.sets_y[index],
                thresholds=tuple(float(v) for v in self.thresholds_y[index]),
            ),
        )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class NegotiationEngine:
    """Evaluates batches of BOSCO bargaining games with NumPy kernels.

    Stateless: :mod:`repro.bargaining.mechanism` holds the one instance
    every configuration path solves with.  Every public method is
    row-independent — evaluating a sub-batch yields the same bits as
    evaluating the full batch and slicing.
    """

    # ------------------------------------------------------------------
    # Eq. 15: choice probabilities
    # ------------------------------------------------------------------
    def choice_probabilities(
        self, thresholds: np.ndarray, kernel: DistributionKernel
    ) -> np.ndarray:
        """Batched :func:`~repro.reference.choice_probabilities`."""
        upper = _next_thresholds(thresholds)
        low = np.maximum(thresholds, kernel.lower)
        high = np.minimum(upper, kernel.upper)
        return np.where(high > low, kernel.mass(low, high), 0.0)

    # ------------------------------------------------------------------
    # Eqs. 16–17: response lines
    # ------------------------------------------------------------------
    def response_lines(
        self,
        own_values: np.ndarray,
        opponent_values: np.ndarray,
        opponent_probabilities: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :func:`~repro.reference.response_lines`.

        Returns ``(slopes, intercepts)`` of shape ``(B, C_own)``.  The
        reference accumulates qualifying opponent terms left to right;
        non-qualifying terms become masked ``+0.0`` entries here, which
        leaves the sequential sums bit-identical.
        """
        with np.errstate(**_IGNORED):
            return _fold_lines(
                _claim_geometry(own_values, opponent_values), opponent_probabilities
            )

    # ------------------------------------------------------------------
    # Algorithm 1: upper-envelope thresholds
    # ------------------------------------------------------------------
    def envelope_thresholds(
        self, slopes: np.ndarray, intercepts: np.ndarray
    ) -> np.ndarray:
        """Batched :func:`~repro.reference.compute_best_response` (see :func:`_envelope`)."""
        with np.errstate(**_IGNORED):
            return _envelope(slopes, intercepts)

    def best_responses(
        self,
        own_values: np.ndarray,
        opponent_values: np.ndarray,
        opponent_thresholds: np.ndarray,
        opponent_kernel: DistributionKernel,
    ) -> np.ndarray:
        """Batched :meth:`~repro.reference.BargainingGame.best_response`, per row."""
        with np.errstate(**_IGNORED):
            return self._respond(
                _claim_geometry(own_values, opponent_values),
                opponent_thresholds,
                opponent_kernel,
            )

    def _respond(
        self,
        geometry: np.ndarray,
        opponent_thresholds: np.ndarray,
        opponent_kernel: DistributionKernel,
    ) -> np.ndarray:
        """Best responses of the rows of a claim geometry (Eq. 15 → Algorithm 1)."""
        probabilities = self.choice_probabilities(opponent_thresholds, opponent_kernel)
        return _envelope(*_fold_lines(geometry, probabilities))

    # ------------------------------------------------------------------
    # Alternating best-response dynamics
    # ------------------------------------------------------------------
    def solve(
        self,
        batch: GameBatch,
        *,
        max_iterations: int = 200,
        tolerance: float = 1e-12,
    ) -> BatchedEquilibria:
        """Batched :meth:`~repro.reference.BargainingGame.find_equilibrium`.

        Runs the reference's starting profiles in the reference order;
        instances that converge drop out, instances that cycle (exact
        threshold-signature repeat) or exhaust ``max_iterations`` move
        on to the next start.  ``converged`` is ``False`` exactly for
        the instances on which the per-instance search would raise.
        ``tolerance`` must be finite and non-negative.

        Rows are solved in consecutive chunks whose claim geometry
        (``2 · rows · C_x · C_y`` elements per party) fits
        ``_GEOMETRY_ELEMENTS``, or one row when a row alone is larger;
        rows are independent, so chunking leaves every bit unchanged.
        """
        if not 0.0 <= tolerance < _INF:
            raise ValueError(
                f"tolerance must be finite and non-negative, got {tolerance!r}"
            )
        size = len(batch)
        counts_x = batch.choices_x.shape[1]
        counts_y = batch.choices_y.shape[1]
        result = BatchedEquilibria(
            thresholds_x=np.full((size, counts_x), np.nan),
            thresholds_y=np.full((size, counts_y), np.nan),
            converged=np.zeros(size, dtype=bool),
            start_index=np.full(size, -1, dtype=np.int64),
            iterations=np.zeros(size, dtype=np.int64),
            last_delta=np.full(size, np.nan),
        )
        step = max(1, _GEOMETRY_ELEMENTS // (2 * counts_x * counts_y))
        with np.errstate(**_IGNORED):
            for first in range(0, size, step):
                chunk = slice(first, first + step)
                self._solve_chunk(
                    batch.rows(chunk),
                    result.rows(chunk),
                    max_iterations=max_iterations,
                    tolerance=tolerance,
                )
        return result

    def _solve_chunk(
        self,
        batch: GameBatch,
        result: BatchedEquilibria,
        *,
        max_iterations: int,
        tolerance: float,
    ) -> None:
        """Run the starting profiles over ``batch``, writing into ``result``."""
        kernel_x = kernel_for(batch.distribution.marginal_x)
        kernel_y = kernel_for(batch.distribution.marginal_y)
        counts_x = batch.choices_x.shape[1]
        pending = np.arange(len(batch))
        for start, (build_x, build_y) in enumerate(_STARTING_PROFILES):
            if pending.size == 0:
                break
            choices_x = batch.choices_x[pending]
            choices_y = batch.choices_y[pending]
            solved, profiles, iterations, deltas = self._dynamics(
                choices_x,
                choices_y,
                np.concatenate((build_x(choices_x), build_y(choices_y)), axis=1),
                kernel_x,
                kernel_y,
                max_iterations=max_iterations,
                tolerance=tolerance,
            )
            done = pending[solved]
            result.thresholds_x[done] = profiles[solved, :counts_x]
            result.thresholds_y[done] = profiles[solved, counts_x:]
            result.converged[done] = True
            result.start_index[done] = start
            result.iterations[pending] = iterations
            result.last_delta[pending] = deltas
            pending = pending[~solved]

    def _dynamics(
        self,
        choices_x: np.ndarray,
        choices_y: np.ndarray,
        profiles: np.ndarray,
        kernel_x: DistributionKernel,
        kernel_y: DistributionKernel,
        *,
        max_iterations: int,
        tolerance: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One lockstep run of alternating best-response dynamics.

        A row's profile is one array, its x thresholds followed by its y
        thresholds, so the convergence delta and the cycle signature each
        take one pass over both parties.  Both parties' claim geometry is
        built once; a round in which rows converge or cycle compacts the
        staying rows' geometry, profiles and cycle sets, so every round
        works on the active rows only.  Returns ``(solved, profiles,
        iterations, deltas)``.
        """
        size = choices_x.shape[0]
        counts_x = choices_x.shape[1]
        geometry_x = _claim_geometry(choices_x, choices_y)
        geometry_y = _claim_geometry(choices_y, choices_x)
        rows = np.arange(size)
        solved = np.zeros(size, dtype=bool)
        final = np.empty_like(profiles)
        iterations = np.full(size, max_iterations, dtype=np.int64)
        deltas = np.full(size, np.nan)
        seen: list[set[bytes]] = [set() for _ in range(size)]
        for round_number in range(1, max_iterations + 1):
            next_x = self._respond(geometry_x, profiles[:, counts_x:], kernel_y)
            following = np.concatenate(
                (next_x, self._respond(geometry_y, next_x, kernel_x)), axis=1
            )
            # ``ThresholdStrategy.approximately_equal`` on both parties:
            # equal thresholds give a zero delta, an infinity mismatch
            # or an overflowing difference gives +∞.
            round_deltas = _rows_delta(following, profiles)
            deltas[rows] = round_deltas
            converged = round_deltas <= tolerance
            staying = ~converged
            # `+ 0.0` collapses −0.0 onto +0.0, matching the tuple
            # equality the reference's cycle detector relies on.
            signatures = following + 0.0
            for position in np.flatnonzero(staying).tolist():
                signature = signatures[position].tobytes()
                if signature in seen[position]:
                    staying[position] = False
                else:
                    seen[position].add(signature)
            profiles = following
            if staying.all():
                continue
            leaving = ~staying
            done = rows[leaving]
            final[done] = following[leaving]
            iterations[done] = round_number
            solved[rows[converged]] = True
            rows = rows[staying]
            if rows.size == 0:
                return solved, final, iterations, deltas
            profiles = following[staying]
            geometry_x = geometry_x[staying]
            geometry_y = geometry_y[staying]
            seen = [history for history, stays in zip(seen, staying.tolist()) if stays]
        # Rows still active ran out of rounds.
        final[rows] = profiles
        return solved, final, iterations, deltas

    # ------------------------------------------------------------------
    # Eqs. 19–20: expected Nash product and Price of Dishonesty
    # ------------------------------------------------------------------
    def expected_nash_products(
        self, batch: GameBatch, equilibria: BatchedEquilibria
    ) -> np.ndarray:
        """Batched :func:`~repro.reference.expected_nash_product`.

        Returns one value per instance (``NaN`` for non-converged rows).
        The rectangle decomposition accumulates in the reference's
        row-major ``(index_x, index_y)`` order with skipped rectangles
        as masked zero terms.
        """
        size = len(batch)
        values = np.full(size, np.nan)
        rows = np.nonzero(equilibria.converged)[0]
        if rows.size == 0:
            return values
        kernel_x = kernel_for(batch.distribution.marginal_x)
        kernel_y = kernel_for(batch.distribution.marginal_y)
        claims_x = batch.choices_x[rows]
        claims_y = batch.choices_y[rows]
        mass_x, mean_x, nonempty_x = _interval_moments(
            equilibria.thresholds_x[rows], kernel_x
        )
        mass_y, mean_y, nonempty_y = _interval_moments(
            equilibria.thresholds_y[rows], kernel_y
        )
        finite_x = np.isfinite(claims_x)
        finite_y = np.isfinite(claims_y)
        safe_x = np.where(finite_x, claims_x, 0.0)
        safe_y = np.where(finite_y, claims_y, 0.0)
        concluding = safe_x[:, :, None] + safe_y[:, None, :] >= 0.0
        mask = (
            (finite_x & nonempty_x)[:, :, None]
            & (finite_y & nonempty_y)[:, None, :]
            & concluding
        )
        transfer = (safe_x[:, :, None] - safe_y[:, None, :]) / 2.0
        terms = (mean_x[:, :, None] - transfer * mass_x[:, :, None]) * (
            mean_y[:, None, :] + transfer * mass_y[:, None, :]
        )
        terms = np.where(mask, terms, 0.0)
        values[rows] = sequential_sum(terms.reshape(rows.size, -1), axis=1)
        return values

    def prices_of_dishonesty(
        self, nash_products: np.ndarray, truthful_value: float
    ) -> np.ndarray:
        """Batched :func:`~repro.reference.price_of_dishonesty`."""
        if truthful_value <= 0.0:
            raise ValueError(
                "the Price of Dishonesty is undefined when the truthful expected "
                "Nash product is zero"
            )
        pods = 1.0 - nash_products / truthful_value
        return np.minimum(1.0, np.maximum(0.0, pods))

    def equilibrium_choice_counts(
        self, equilibria: BatchedEquilibria
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-party counts of choices with a non-empty interval."""
        counts = []
        for thresholds in (equilibria.thresholds_x, equilibria.thresholds_y):
            upper = _next_thresholds(thresholds)
            counts.append((upper > thresholds).sum(axis=1))
        return counts[0], counts[1]


# ----------------------------------------------------------------------
# Batched claims (the negotiation stage itself)
# ----------------------------------------------------------------------
def batched_claims(
    strategy: ThresholdStrategy, utilities: np.ndarray
) -> np.ndarray:
    """Claims committed by one threshold strategy for many true utilities.

    ``np.searchsorted(..., side="right")`` has exactly the semantics of
    the ``bisect_right`` lookup in
    :meth:`~repro.bargaining.strategy.ThresholdStrategy.choice_index`.
    """
    thresholds = np.asarray(strategy.thresholds, dtype=np.float64)
    values = np.asarray(strategy.choices.values, dtype=np.float64)
    indices = np.searchsorted(thresholds, utilities, side="right") - 1
    return values[np.maximum(indices, 0)]


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _next_thresholds(thresholds: np.ndarray) -> np.ndarray:
    """Upper interval ends: the next threshold, ``+∞`` for the last."""
    filler = np.full(thresholds.shape[:-1] + (1,), _INF)
    return np.concatenate([thresholds[..., 1:], filler], axis=-1)


def _claim_geometry(own_values: np.ndarray, opponent_values: np.ndarray) -> np.ndarray:
    """The part of Eqs. 16–17 a row's two choice sets fix, ``(B, 2, C_opp, C_own)``.

    Opponent choice ``j`` qualifies for own choice ``i`` when both
    values are finite and ``v_j ≥ −v_i``.  A row's plane 0 is ``1.0`` where it
    does and ``0.0`` elsewhere; plane 1 is the claim gap ``v_j − v_i``
    where it does and an exact ``0.0`` elsewhere, so a masked gap never
    overflows (``∞ · 0.0`` would be NaN).  A qualifying gap beyond the
    float range overflows to ±∞ as silently as Python floats.  The
    opponent axis comes before the own axis, so the fold over opponent
    choices runs over an outer axis (:func:`~repro.core.arrays.ordered_fold`).
    """
    own = own_values[:, None, :]
    opponent = opponent_values[:, :, None]
    qualifies = opponent >= -own
    qualifies &= np.isfinite(own)
    qualifies &= np.isfinite(opponent)
    batch, opponent_count, own_count = qualifies.shape
    geometry = np.zeros((batch, 2, opponent_count, own_count))
    geometry[:, 0] = qualifies
    np.subtract(opponent, own, out=geometry[:, 1], where=qualifies)
    return geometry


def _envelope(slopes: np.ndarray, intercepts: np.ndarray) -> np.ndarray:
    """Algorithm 1 on every row of ``(B, C)`` lines, over one flat run list.

    One line per distinct-slope run stays active.  The active lines of
    all rows form one flat list in row-major order, so a row's lines
    are consecutive and its active slopes strictly increase.  A table
    of crossings of each line with the next ``K`` lines of the list
    (``K`` one less than the widest row) gives every line its successor
    on its row's envelope: the later line of the same row with the
    minimal crossing, ties to the steeper line, i.e. the *last* minimal
    candidate.  A line's successor does not depend on how the chain
    reached it, so one walk follows every row's chain in a plain loop.
    Unassigned thresholds take the minimum over later thresholds, and
    the monotonic clamp is a running maximum.
    """
    batch_size, count = slopes.shape
    total = batch_size * count
    flat_slopes = slopes.reshape(-1)
    flat_intercepts = intercepts.reshape(-1)

    # One active line per distinct-slope run: the first index with the
    # maximal intercept (strict `>` in the reference scan keeps the
    # first).  Runs are contiguous and never span rows (column 0 always
    # starts one), so segment maxima and minima come from flat
    # ``reduceat`` passes — comparison-only, hence exact.
    run_starts = np.ones((batch_size, count), dtype=bool)
    run_starts[:, 1:] = slopes[:, 1:] != slopes[:, :-1]
    flat_run_starts = run_starts.reshape(-1)
    flat_starts = np.flatnonzero(flat_run_starts)
    run_of = np.cumsum(flat_run_starts) - 1
    flat_index = np.arange(total)
    run_maxima = np.maximum.reduceat(flat_intercepts, flat_starts)[run_of]
    attains_maximum = np.where(flat_intercepts == run_maxima, flat_index, total)
    lines = np.minimum.reduceat(attains_maximum, flat_starts)
    runs = lines.size
    line_slopes = flat_slopes[lines]
    line_intercepts = flat_intercepts[lines]
    # Row ``b`` owns runs ``first_runs[b] … ends[b] - 1``.
    first_runs = run_of[::count]
    ends = run_of[count - 1 :: count] + 1
    widths = ends - first_runs
    run_ends = np.repeat(ends, widths)
    depth = max(1, int(widths.max()) - 1)

    # Successor of every line: the crossing table is cut into blocks of
    # runs under ``_BLOCK_ELEMENTS``, so a row of ``C`` active lines (a
    # truthful start) stays bounded at large batches.  A candidate must
    # lie in the same row (before ``run_ends``); lookups past the end of
    # the list are clipped and never candidates.  A NaN crossing is
    # skipped like the reference's failed `<` test; when every crossing
    # is +∞ the chain jumps to the row's last line at +∞, which leaves
    # the same thresholds as the reference's stop.
    offsets = np.arange(1, depth + 1)
    successors = np.empty(runs, dtype=np.intp)
    takeovers = np.empty(runs)
    runs_per_block = max(1, _BLOCK_ELEMENTS // depth)
    for first in range(0, runs, runs_per_block):
        block = slice(first, first + runs_per_block)
        own = np.arange(first, min(first + runs_per_block, runs))
        later = own[:, None] + offsets
        candidates = later < run_ends[block, None]
        crossings = (
            line_intercepts[block, None] - line_intercepts.take(later, mode="clip")
        ) / (line_slopes.take(later, mode="clip") - line_slopes[block, None])
        crossings = np.where(candidates & (crossings < _INF), crossings, _INF)
        best = crossings.min(axis=1)
        takeovers[block] = best
        successors[block] = own + 1 + last_argmax(
            candidates & (crossings == best[:, None])
        )

    # A row's last line hands over to the next row's first, so one walk
    # from line 0 visits every row's chain.  Each visited line but the
    # final one sets its successor's threshold.  A row's first line
    # gets −∞, since the active line with the smallest slope wins as
    # u → −∞; the fill below spreads that to the columns before it.
    last_runs = ends - 1
    successors[last_runs] = ends
    takeovers[last_runs] = -_INF
    step = successors.tolist()
    chain: list[int] = []
    line = 0
    while line < runs:
        chain.append(line)
        line = step[line]
    sources = np.array(chain[:-1], dtype=np.intp)
    thresholds = np.full(total, _INF)
    thresholds[lines[0]] = -_INF
    thresholds[lines[successors[sources]]] = takeovers[sources]
    thresholds = thresholds.reshape(batch_size, count)

    # Choices never on the envelope get an empty interval: a +∞ takes
    # the minimum over later thresholds, which is its inclusive suffix
    # minimum.  Enforce monotonicity against floating-point jitter.
    suffix_minima = np.minimum.accumulate(thresholds[:, ::-1], axis=1)[:, ::-1]
    filled = np.where(thresholds == _INF, suffix_minima, thresholds)
    return running_maximum(filled, axis=1)


def _fold_lines(
    geometry: np.ndarray, probabilities: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eqs. 16–17 from the rows' claim geometry and opponent probabilities.

    One product weighs both planes: ``1.0 · p`` is ``p`` and, where a
    choice does not qualify, ``0.0 · p`` equals the ``0.0 · (0.0 · p)``
    of a masked weight bit for bit.  The halved gap term is then the
    reference's ``probability * (v_j − v_i) / 2.0``, and one fold over
    the opponent axis, masked terms entering as ``+0.0``, gives the
    slopes and the intercepts.
    """
    terms = geometry * probabilities[:, None, :, None]
    terms[:, 1] /= 2.0
    lines = ordered_fold(terms, axis=2)
    return lines[:, 0], lines[:, 1]


def _interval_moments(
    thresholds: np.ndarray, kernel: DistributionKernel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support-clipped interval mass, partial mean, and non-emptiness."""
    upper = _next_thresholds(thresholds)
    low = np.maximum(thresholds, kernel.lower)
    high = np.minimum(upper, kernel.upper)
    return kernel.mass(low, high), kernel.partial_mean(low, high), high > low


def _rows_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise profile delta: max |a−b| with ∞ for an infinity mismatch."""
    difference = np.abs(a - b)
    difference = np.where(a == b, 0.0, difference)
    difference = np.where(np.isnan(difference), _INF, difference)
    return np.max(difference, axis=1) if a.shape[1] else np.zeros(a.shape[0])


def _truthful_thresholds(choices: np.ndarray) -> np.ndarray:
    """Batched :func:`~repro.reference.truthful_like_strategy`."""
    first = np.full((choices.shape[0], 1), -_INF)
    return np.concatenate([first, choices[:, 1:]], axis=1)


def _always_cancel_thresholds(choices: np.ndarray) -> np.ndarray:
    thresholds = np.full(choices.shape, _INF)
    thresholds[:, 0] = -_INF
    return thresholds


def _always_maximal_thresholds(choices: np.ndarray) -> np.ndarray:
    return np.full(choices.shape, -_INF)


#: Starting profiles of the equilibrium search, in the reference order
#: of :meth:`repro.reference.BargainingGame.find_equilibrium`.
_STARTING_PROFILES = (
    (_truthful_thresholds, _truthful_thresholds),
    (_truthful_thresholds, _always_cancel_thresholds),
    (_always_cancel_thresholds, _truthful_thresholds),
    (_always_maximal_thresholds, _always_maximal_thresholds),
)

"""Batched evaluation of BOSCO bargaining games (§V) with array kernels.

The per-instance stack — :func:`~repro.bargaining.game.choice_probabilities`,
:func:`~repro.bargaining.game.response_lines` (Eqs. 14–17),
:func:`~repro.bargaining.strategy.compute_best_response` (Algorithm 1),
:meth:`~repro.bargaining.game.BargainingGame.find_equilibrium`, and the
Nash-product integrals of :mod:`~repro.bargaining.efficiency` — runs one
trial at a time in pure Python.  Fig. 2 evaluates hundreds of random
choice-set trials per cardinality and the marketplace simulation
negotiates batches of agreements per billing epoch, so the
:class:`NegotiationEngine` here evaluates **batches** of bargaining-game
instances at once: ``(B, W+1)`` ``float64`` arrays of choices and
thresholds, batched best-response sweeps with convergence masks, and
vectorized Nash-product / Price-of-Dishonesty reductions.

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
2. every reduction uses :func:`~repro.core.arrays.sequential_sum`
   (left-to-right scan order), never ``np.sum`` (pairwise order);
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
from repro.bargaining.game import StrategyProfile
from repro.bargaining.strategy import ThresholdStrategy
from repro.core.arrays import (
    exclusive_suffix_minimum,
    last_argmax,
    running_maximum,
    sequential_sum,
)

_INF = float("inf")


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
    :class:`~repro.bargaining.game.EquilibriumError`.  ``iterations``
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
        """Batched :func:`~repro.bargaining.game.choice_probabilities`."""
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
        """Batched :func:`~repro.bargaining.game.response_lines`.

        Returns ``(slopes, intercepts)`` of shape ``(B, C_own)``.  The
        reference accumulates qualifying opponent terms left to right;
        non-qualifying terms become masked ``+0.0`` entries here, which
        leaves the sequential sums bit-identical.
        """
        batch, own_count = own_values.shape
        own_finite = np.isfinite(own_values)
        opponent_finite = np.isfinite(opponent_values)
        own_safe = np.where(own_finite, own_values, 0.0)
        opponent_safe = np.where(opponent_finite, opponent_values, 0.0)
        negated_own = -own_safe
        # The scan runs over the opponent axis with one fused, in-place
        # vector add per opponent choice: accumulation order per
        # ``(instance, own choice)`` lane is the reference's
        # left-to-right loop, the adds vectorize across the batch, and
        # every intermediate stays in a cache-resident ``(B, C_own)``
        # slice instead of a ``(B, C_own, C_opp)`` block.  Masked terms
        # enter as ``±0.0``, which is neutral under IEEE-754
        # round-to-nearest addition, so the sums are bit-identical to
        # the reference's skip-the-term loop.
        slopes = np.zeros((batch, own_count))
        intercepts = np.zeros((batch, own_count))
        mask = np.empty((batch, own_count), dtype=bool)
        masked_probability = np.empty((batch, own_count))
        term = np.empty((batch, own_count))
        for k in range(opponent_values.shape[1]):
            opponent_column = opponent_safe[:, k, None]
            np.greater_equal(opponent_column, negated_own, out=mask)
            mask &= own_finite
            mask &= opponent_finite[:, k, None]
            np.multiply(mask, opponent_probabilities[:, k, None], out=masked_probability)
            slopes += masked_probability
            np.subtract(opponent_column, own_safe, out=term)
            term *= masked_probability
            term /= 2.0
            intercepts += term
        return slopes, intercepts

    # ------------------------------------------------------------------
    # Algorithm 1: upper-envelope thresholds
    # ------------------------------------------------------------------
    def envelope_thresholds(
        self, slopes: np.ndarray, intercepts: np.ndarray
    ) -> np.ndarray:
        """Batched :func:`~repro.bargaining.strategy.compute_best_response`.

        Vectorizes Algorithm 1 across the batch: one line per distinct
        slope stays active, the envelope chain advances to the candidate
        with the minimal crossing (ties to the steeper line, i.e. the
        *last* minimal candidate since active slopes strictly increase),
        unassigned thresholds take the minimum over later thresholds,
        and the monotonic clamp is a running maximum.
        """
        batch_size, count = slopes.shape
        columns = np.arange(count)
        total = batch_size * count

        # One active line per distinct-slope run: the first index with
        # the maximal intercept (strict `>` in the reference scan keeps
        # the first).  Runs are contiguous and never span rows (column 0
        # always starts one), so segment maxima come from one flat
        # ``reduceat`` pass — comparison-only, hence exact.
        run_starts = np.ones((batch_size, count), dtype=bool)
        run_starts[:, 1:] = slopes[:, 1:] != slopes[:, :-1]
        flat_starts = np.nonzero(run_starts.reshape(-1))[0]
        flat_intercepts = intercepts.reshape(-1)
        run_maxima = np.repeat(
            np.maximum.reduceat(flat_intercepts, flat_starts),
            np.diff(np.append(flat_starts, total)),
        )
        attains_maximum = np.where(
            flat_intercepts == run_maxima, np.arange(total), total
        )
        active = np.zeros(total, dtype=bool)
        active[np.minimum.reduceat(attains_maximum, flat_starts)] = True
        active = active.reshape(batch_size, count)

        # The active line with the smallest slope wins as u → −∞.
        first_active = np.argmax(active, axis=1)
        thresholds = np.where(columns[None, :] <= first_active[:, None], -_INF, _INF)

        # Envelope chain: repeatedly jump to the candidate whose line
        # takes over first.  Rows advance in lockstep; finished rows
        # (no active line after the current one) drop out.
        current = first_active.copy()
        alive = (active & (columns[None, :] > current[:, None])).any(axis=1)
        while alive.any():
            rows = np.nonzero(alive)[0]
            current_rows = current[rows]
            slope_current = slopes[rows, current_rows][:, None]
            intercept_current = intercepts[rows, current_rows][:, None]
            candidates = active[rows] & (columns[None, :] > current_rows[:, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                crossings = (intercept_current - intercepts[rows]) / (
                    slopes[rows] - slope_current
                )
            crossings = np.where(candidates, crossings, _INF)
            best_crossing = np.min(crossings, axis=1)
            takeover = last_argmax(candidates & (crossings == best_crossing[:, None]))
            thresholds[rows, takeover] = best_crossing
            current[rows] = takeover
            alive[rows] = (active[rows] & (columns[None, :] > takeover[:, None])).any(
                axis=1
            )

        # Choices never on the envelope get an empty interval; enforce
        # monotonicity against floating-point jitter.
        filled = np.where(
            np.isposinf(thresholds), exclusive_suffix_minimum(thresholds), thresholds
        )
        return running_maximum(filled, axis=1)

    def best_responses(
        self,
        own_values: np.ndarray,
        opponent_values: np.ndarray,
        opponent_thresholds: np.ndarray,
        opponent_kernel: DistributionKernel,
    ) -> np.ndarray:
        """Batched ``BargainingGame.best_response``: thresholds per row."""
        probabilities = self.choice_probabilities(opponent_thresholds, opponent_kernel)
        slopes, intercepts = self.response_lines(
            own_values, opponent_values, probabilities
        )
        return self.envelope_thresholds(slopes, intercepts)

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
        """Batched ``BargainingGame.find_equilibrium``.

        Runs the reference's starting profiles in the reference order;
        instances that converge drop out, instances that cycle (exact
        threshold-signature repeat) or exhaust ``max_iterations`` move
        on to the next start.  ``converged`` is ``False`` exactly for
        the instances on which the per-instance search would raise.
        """
        size = len(batch)
        kernel_x = kernel_for(batch.distribution.marginal_x)
        kernel_y = kernel_for(batch.distribution.marginal_y)
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
        pending = np.arange(size)
        for start, (build_x, build_y) in enumerate(_STARTING_PROFILES):
            if pending.size == 0:
                break
            choices_x = batch.choices_x[pending]
            choices_y = batch.choices_y[pending]
            solved, thresholds_x, thresholds_y, iterations, deltas = self._dynamics(
                choices_x,
                choices_y,
                build_x(choices_x),
                build_y(choices_y),
                kernel_x,
                kernel_y,
                max_iterations=max_iterations,
                tolerance=tolerance,
            )
            done = pending[solved]
            result.thresholds_x[done] = thresholds_x[solved]
            result.thresholds_y[done] = thresholds_y[solved]
            result.converged[done] = True
            result.start_index[done] = start
            result.iterations[pending] = iterations
            result.last_delta[pending] = deltas
            pending = pending[~solved]
        return result

    def _dynamics(
        self,
        choices_x: np.ndarray,
        choices_y: np.ndarray,
        thresholds_x: np.ndarray,
        thresholds_y: np.ndarray,
        kernel_x: DistributionKernel,
        kernel_y: DistributionKernel,
        *,
        max_iterations: int,
        tolerance: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One lockstep run of alternating best-response dynamics."""
        size = choices_x.shape[0]
        seen: list[set[tuple[bytes, bytes]]] = [set() for _ in range(size)]
        active = np.ones(size, dtype=bool)
        solved = np.zeros(size, dtype=bool)
        thresholds_x = thresholds_x.copy()
        thresholds_y = thresholds_y.copy()
        iterations = np.zeros(size, dtype=np.int64)
        deltas = np.full(size, np.nan)
        # Best responses are pure functions of the opponent thresholds,
        # so rows whose opponent did not move since the previous round
        # reuse the cached response (near convergence the confirmation
        # round is otherwise a full bit-identical recompute).
        respond_x = _ResponseCache(
            self, choices_x, choices_y, kernel_y, thresholds_x.shape[1]
        )
        respond_y = _ResponseCache(
            self, choices_y, choices_x, kernel_x, thresholds_y.shape[1]
        )
        for _ in range(max_iterations):
            rows = np.nonzero(active)[0]
            if rows.size == 0:
                break
            next_x = respond_x(rows, thresholds_y[rows])
            next_y = respond_y(rows, next_x)
            converged = _rows_approximately_equal(
                next_x, thresholds_x[rows], tolerance
            ) & _rows_approximately_equal(next_y, thresholds_y[rows], tolerance)
            deltas[rows] = np.maximum(
                _rows_delta(next_x, thresholds_x[rows]),
                _rows_delta(next_y, thresholds_y[rows]),
            )
            thresholds_x[rows] = next_x
            thresholds_y[rows] = next_y
            iterations[rows] += 1
            solved[rows[converged]] = True
            active[rows[converged]] = False
            for position, row in enumerate(rows):
                if converged[position]:
                    continue
                # `+ 0.0` collapses −0.0 onto +0.0, matching the tuple
                # equality the reference's cycle detector relies on.
                signature = (
                    (next_x[position] + 0.0).tobytes(),
                    (next_y[position] + 0.0).tobytes(),
                )
                if signature in seen[row]:
                    active[row] = False
                else:
                    seen[row].add(signature)
        return solved, thresholds_x, thresholds_y, iterations, deltas

    # ------------------------------------------------------------------
    # Eqs. 19–20: expected Nash product and Price of Dishonesty
    # ------------------------------------------------------------------
    def expected_nash_products(
        self, batch: GameBatch, equilibria: BatchedEquilibria
    ) -> np.ndarray:
        """Batched :func:`~repro.bargaining.efficiency.expected_nash_product`.

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
        """Batched :func:`~repro.bargaining.efficiency.price_of_dishonesty`."""
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


class _ResponseCache:
    """Per-row memo of the last best response against one opponent.

    Keyed by bitwise equality of the opponent's thresholds (signed
    zeros compare equal, and best responses are invariant to the sign
    of a zero threshold), so a cache hit returns exactly the array the
    engine would recompute.
    """

    def __init__(
        self,
        engine: "NegotiationEngine",
        own_values: np.ndarray,
        opponent_values: np.ndarray,
        opponent_kernel: DistributionKernel,
        width: int,
    ) -> None:
        self._engine = engine
        self._own = own_values
        self._opponent = opponent_values
        self._kernel = opponent_kernel
        self._valid = np.zeros(own_values.shape[0], dtype=bool)
        self._inputs = np.empty_like(opponent_values)
        self._outputs = np.empty((own_values.shape[0], width))

    def __call__(self, rows: np.ndarray, opponent_thresholds: np.ndarray) -> np.ndarray:
        hits = self._valid[rows] & np.all(
            opponent_thresholds == self._inputs[rows], axis=1
        )
        responses = np.empty((rows.size, self._outputs.shape[1]))
        responses[hits] = self._outputs[rows[hits]]
        misses = ~hits
        if misses.any():
            miss_rows = rows[misses]
            computed = self._engine.best_responses(
                self._own[miss_rows],
                self._opponent[miss_rows],
                opponent_thresholds[misses],
                self._kernel,
            )
            responses[misses] = computed
            self._inputs[miss_rows] = opponent_thresholds[misses]
            self._outputs[miss_rows] = computed
            self._valid[miss_rows] = True
        return responses


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


def _interval_moments(
    thresholds: np.ndarray, kernel: DistributionKernel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support-clipped interval mass, partial mean, and non-emptiness."""
    upper = _next_thresholds(thresholds)
    low = np.maximum(thresholds, kernel.lower)
    high = np.minimum(upper, kernel.upper)
    return kernel.mass(low, high), kernel.partial_mean(low, high), high > low


def _rows_approximately_equal(
    a: np.ndarray, b: np.ndarray, tolerance: float
) -> np.ndarray:
    """Row-wise ``ThresholdStrategy.approximately_equal`` on thresholds."""
    same = a == b
    finite = np.isfinite(a) & np.isfinite(b)
    with np.errstate(invalid="ignore"):
        close = finite & (np.abs(a - b) <= tolerance)
    return np.all(same | close, axis=1)


def _rows_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise profile delta: max |a−b| with ∞ for an infinity mismatch."""
    with np.errstate(invalid="ignore"):
        difference = np.abs(a - b)
    difference = np.where(a == b, 0.0, difference)
    difference = np.where(np.isnan(difference), _INF, difference)
    return np.max(difference, axis=1) if a.shape[1] else np.zeros(a.shape[0])


def _truthful_thresholds(choices: np.ndarray) -> np.ndarray:
    """Batched :func:`~repro.bargaining.strategy.truthful_like_strategy`."""
    first = np.full((choices.shape[0], 1), -_INF)
    return np.concatenate([first, choices[:, 1:]], axis=1)


def _always_cancel_thresholds(choices: np.ndarray) -> np.ndarray:
    thresholds = np.full(choices.shape, _INF)
    thresholds[:, 0] = -_INF
    return thresholds


def _always_maximal_thresholds(choices: np.ndarray) -> np.ndarray:
    return np.full(choices.shape, -_INF)


#: Starting profiles of the equilibrium search, in the reference order
#: of ``BargainingGame._default_starting_profiles``.
_STARTING_PROFILES = (
    (_truthful_thresholds, _truthful_thresholds),
    (_truthful_thresholds, _always_cancel_thresholds),
    (_always_cancel_thresholds, _truthful_thresholds),
    (_always_maximal_thresholds, _always_maximal_thresholds),
)

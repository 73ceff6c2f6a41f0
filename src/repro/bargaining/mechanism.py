"""The BOSCO service: choice-set construction and automated negotiation (§V).

BOSCO (Bargaining in One Shot with Choice Optimization) works in three
stages:

1. *Configuration*: given utility-distribution estimates for both
   parties, the service constructs choice sets (by random sampling from
   the distributions, §V-E), computes a Nash equilibrium of the induced
   bargaining game, and rates it by the Price of Dishonesty.  Several
   random trials are performed and the best configuration is kept.
2. *Publication*: the mechanism-information set (distributions, choice
   sets, equilibrium) is communicated to the parties, which can verify
   that the published profile really is an equilibrium.
3. *Negotiation*: each party applies its equilibrium strategy to its
   private true utility and commits the resulting claim; the service
   concludes the agreement iff the apparent surplus is non-negative and
   settles the cash compensation ``Π = (v_X − v_Y)/2``.

Configuration has one production path: draw a cohort of trials, solve
it in one :class:`~repro.bargaining.engine.NegotiationEngine` batch
(:func:`solve_trial_cohorts`) and read the best trial and the PoD
statistics off :func:`summarize_cohort`.  :class:`BoscoService` and the
API session's negotiate workflow both go through it; the per-trial
oracle it is pinned to lives in :mod:`repro.reference`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.bargaining.choices import ChoiceSet, quantile_choice_set, random_choice_set
from repro.bargaining.distributions import JointUtilityDistribution
from repro.bargaining.efficiency import expected_truthful_nash_product
from repro.bargaining.engine import (
    BatchedEquilibria,
    GameBatch,
    NegotiationEngine,
    batched_claims,
    kernel_for,
)
from repro.bargaining.strategy import EquilibriumError, StrategyProfile, ThresholdStrategy

#: The one negotiation engine.  It is stateless, so every cohort solve
#: shares it.
_ENGINE = NegotiationEngine()


@dataclass(frozen=True)
class MechanismInformation:
    """The mechanism-information set published to the negotiating parties."""

    distribution: JointUtilityDistribution
    choices_x: ChoiceSet
    choices_y: ChoiceSet
    equilibrium: StrategyProfile
    price_of_dishonesty: float
    expected_nash_product: float

    def verify_equilibrium(self) -> bool:
        """Party-side check that the published profile is a Nash equilibrium.

        §V-C6: each party recomputes its best response to the other's
        published strategy over the published choice sets and accepts
        when both match the profile within ``1e-9``.
        """
        strategy_x = self.equilibrium.strategy_x
        strategy_y = self.equilibrium.strategy_y
        # The engine needs thresholds shaped like the published choice sets.
        if (strategy_x.choices, strategy_y.choices) != (self.choices_x, self.choices_y):
            return False
        marginal_x, marginal_y = self.distribution.marginal_x, self.distribution.marginal_y
        replies = []
        for own, opponent, opponent_strategy, opponent_marginal in (
            (self.choices_x, self.choices_y, strategy_y, marginal_y),
            (self.choices_y, self.choices_x, strategy_x, marginal_x),
        ):
            thresholds = _ENGINE.best_responses(
                np.array([own.values]),
                np.array([opponent.values]),
                np.array([opponent_strategy.thresholds]),
                kernel_for(opponent_marginal),
            )
            replies.append(ThresholdStrategy(own, tuple(thresholds[0].tolist())))
        best_x, best_y = replies
        return best_x.approximately_equal(strategy_x) and best_y.approximately_equal(strategy_y)


class NegotiationOutcome(NamedTuple):
    """Result of one BOSCO-mediated negotiation.

    A ``NamedTuple`` rather than a frozen dataclass: the marketplace
    lifecycle constructs one outcome per negotiation per flush, and
    tuple construction (``_make``) is what keeps the batched
    :meth:`BoscoService.negotiate_many` path cheap at
    tens-of-thousands-of-pairs cohort sizes.
    """

    claim_x: float
    claim_y: float
    concluded: bool
    transfer_x_to_y: float
    true_utility_x: float
    true_utility_y: float

    @property
    def post_utility_x(self) -> float:
        """After-negotiation utility of party X."""
        if not self.concluded:
            return 0.0
        return self.true_utility_x - self.transfer_x_to_y

    @property
    def post_utility_y(self) -> float:
        """After-negotiation utility of party Y."""
        if not self.concluded:
            return 0.0
        return self.true_utility_y + self.transfer_x_to_y

    @property
    def nash_product(self) -> float:
        """Nash product of the after-negotiation utilities."""
        return self.post_utility_x * self.post_utility_y


@dataclass(frozen=True)
class SolvedCohort:
    """One caller's trials, solved (possibly inside a larger packed batch)."""

    batch: GameBatch
    equilibria: BatchedEquilibria
    nash_products: np.ndarray
    pods: np.ndarray


def draw_trial_pairs(
    distribution: JointUtilityDistribution,
    num_choices: int,
    trials: int,
    *,
    seed: int | np.random.Generator,
) -> list[tuple[ChoiceSet, ChoiceSet]]:
    """Draw the random choice-set pairs of ``trials`` configuration trials.

    Exactly the draws a ``BoscoService(distribution, seed=seed)`` with
    ``choice_construction="random"`` would consume for the same number
    of trials: ``default_rng(seed)``, X before Y per trial.  A cohort
    drawn here is therefore independent of *when* and *with whom* it is
    later solved — the seam the ``repro serve`` coalescer relies on to
    pack concurrent callers into one batch.  A ``Generator`` seed is
    drawn from as is (the service passes its own).
    """
    rng = np.random.default_rng(seed)
    return [
        (
            random_choice_set(distribution.marginal_x, num_choices, rng),
            random_choice_set(distribution.marginal_y, num_choices, rng),
        )
        for _ in range(trials)
    ]


def solve_trial_cohorts(
    distribution: JointUtilityDistribution,
    cohorts: Sequence[Sequence[tuple[ChoiceSet, ChoiceSet]]],
) -> list[SolvedCohort]:
    """Solve several independently drawn trial cohorts in **one** batch.

    The batch entry point for externally packed cohorts: every cohort is
    one caller's list of choice-set pairs (all under the same joint
    ``distribution`` and cardinality — the :class:`GameBatch` packing
    contract).  All pairs are concatenated into a single batch, solved
    with one :meth:`NegotiationEngine.solve` /
    :meth:`~NegotiationEngine.expected_nash_products` /
    :meth:`~NegotiationEngine.prices_of_dishonesty` pass, and unpacked
    into per-cohort row slices.

    Because every engine method is row-independent, each returned
    :class:`SolvedCohort` is **bit-identical** to solving that cohort
    alone — which is what lets ``repro serve`` coalesce concurrent
    clients' negotiation requests without changing a byte of any
    client's response.
    """
    if not cohorts:
        return []
    sizes = [len(cohort) for cohort in cohorts]
    if any(size == 0 for size in sizes):
        raise ValueError("every cohort needs at least one trial")
    all_pairs = [pair for cohort in cohorts for pair in cohort]
    packed = GameBatch.from_choice_sets(distribution, all_pairs)
    equilibria = _ENGINE.solve(packed)
    values = _ENGINE.expected_nash_products(packed, equilibria)
    pods = _ENGINE.prices_of_dishonesty(
        values, expected_truthful_nash_product(distribution)
    )
    solved = []
    start = 0
    for size in sizes:
        rows = slice(start, start + size)
        solved.append(
            SolvedCohort(packed.rows(rows), equilibria.rows(rows), values[rows], pods[rows])
        )
        start += size
    return solved


@dataclass(frozen=True)
class CohortSummary:
    """What a solved cohort says about its trials.

    ``pods`` and ``equilibrium_choices`` (the mean of both parties'
    equilibrium-choice counts) list the converged trials in trial
    order.  ``best`` is the cohort row with the lowest PoD, the first
    one on ties, or ``None`` when no trial converged.
    """

    pods: list[float]
    equilibrium_choices: list[float]
    skipped: int
    best: int | None

    def statistics(self) -> dict[str, float]:
        """The Fig. 2 PoD statistics; needs at least one converged trial."""
        return {
            "min": float(np.min(self.pods)),
            "mean": float(np.mean(self.pods)),
            "max": float(np.max(self.pods)),
            "trials": float(len(self.pods)),
            "mean_equilibrium_choices": float(np.mean(self.equilibrium_choices)),
            "skipped_trials": float(self.skipped),
        }


def summarize_cohort(cohort: SolvedCohort) -> CohortSummary:
    """Summarize the converged trials of one solved cohort."""
    rows = np.flatnonzero(cohort.equilibria.converged)
    counts_x, counts_y = _ENGINE.equilibrium_choice_counts(cohort.equilibria)
    pods = cohort.pods[rows]
    return CohortSummary(
        pods=pods.tolist(),
        equilibrium_choices=((counts_x[rows] + counts_y[rows]) / 2.0).tolist(),
        skipped=len(cohort.batch) - len(rows),
        best=int(rows[np.argmin(pods)]) if len(rows) else None,
    )


class BoscoService:
    """Configures and supervises BOSCO negotiations.

    :meth:`configure` and :meth:`pod_statistics` draw all random trials
    of a call from the service's seeded RNG (X's choice set, then Y's,
    per trial), solve them in one batch and read the result off
    :func:`summarize_cohort`.  The per-trial oracle this is pinned to
    bit for bit lives in :mod:`repro.reference`.

    Non-converging trials are not silently dropped:
    :attr:`skipped_trials` accumulates how many configuration trials
    failed to reach an equilibrium over the service's lifetime.
    """

    def __init__(
        self,
        distribution: JointUtilityDistribution,
        *,
        seed: int = 0,
        choice_construction: str = "random",
    ) -> None:
        if choice_construction not in ("random", "quantile"):
            raise ValueError(
                f"choice_construction must be 'random' or 'quantile', got "
                f"{choice_construction!r}"
            )
        self.distribution = distribution
        self.choice_construction = choice_construction
        self.skipped_trials = 0
        self._rng = np.random.default_rng(seed)

    @property
    def truthful_expected_nash_product(self) -> float:
        """``E[N | σ⊤]`` under the configured distribution (memoized)."""
        return expected_truthful_nash_product(self.distribution)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _solve_trials(
        self, num_choices: int, trials: int
    ) -> tuple[SolvedCohort, CohortSummary]:
        """Draw and solve ``trials`` trials; count the skipped ones."""
        if self.choice_construction == "random":
            pairs = draw_trial_pairs(self.distribution, num_choices, trials, seed=self._rng)
        else:
            quantiles = (
                quantile_choice_set(self.distribution.marginal_x, num_choices),
                quantile_choice_set(self.distribution.marginal_y, num_choices),
            )
            pairs = [quantiles] * trials
        (cohort,) = solve_trial_cohorts(self.distribution, [pairs])
        summary = summarize_cohort(cohort)
        self.skipped_trials += summary.skipped
        return cohort, summary

    def configure(
        self,
        num_choices: int,
        *,
        trials: int = 20,
    ) -> MechanismInformation:
        """Pick the best configuration out of several random trials.

        ``num_choices`` is the number of finite choices per party (the
        paper's ``W_X = W_Y``); the configuration with the lowest Price
        of Dishonesty is returned.  Non-converging trials are counted in
        :attr:`skipped_trials` rather than silently retried.
        """
        if trials < 1:
            raise ValueError("at least one trial is required")
        cohort, summary = self._solve_trials(num_choices, trials)
        best = summary.best
        if best is None:
            raise EquilibriumError(
                "no choice-set trial produced a converging equilibrium",
                iterations=int(np.max(cohort.equilibria.iterations, initial=0)),
                last_delta=float(np.nanmax(cohort.equilibria.last_delta)),
                skipped_trials=summary.skipped,
            )
        return MechanismInformation(
            distribution=self.distribution,
            choices_x=cohort.batch.sets_x[best],
            choices_y=cohort.batch.sets_y[best],
            equilibrium=cohort.equilibria.profile(cohort.batch, best),
            price_of_dishonesty=float(cohort.pods[best]),
            expected_nash_product=float(cohort.nash_products[best]),
        )

    def pod_statistics(
        self,
        num_choices: int,
        *,
        trials: int = 200,
    ) -> dict[str, float]:
        """Minimum and mean PoD over random choice-set trials (Fig. 2 data).

        ``skipped_trials`` reports how many of the requested trials did
        not converge (their PoD is excluded from the statistics, as in
        the paper's evaluation).
        """
        _, summary = self._solve_trials(num_choices, trials)
        if summary.best is None:
            raise EquilibriumError(
                "no trial converged; cannot compute PoD statistics",
                skipped_trials=summary.skipped,
            )
        return summary.statistics()

    # ------------------------------------------------------------------
    # Negotiation
    # ------------------------------------------------------------------
    @staticmethod
    def negotiate_many(
        information: MechanismInformation,
        true_utilities_x: Sequence[float],
        true_utilities_y: Sequence[float],
    ) -> list[NegotiationOutcome]:
        """Execute negotiations under one published configuration.

        Each party applies its equilibrium strategy to its true utility;
        claims for all instances come from two vectorized threshold
        lookups (:func:`~repro.bargaining.engine.batched_claims`), and
        each outcome is bit-identical to :func:`repro.reference.negotiate`.
        This is what the simulation lifecycle calls once per billing
        epoch for every agreement due for (re)negotiation.
        """
        if len(true_utilities_x) != len(true_utilities_y):
            raise ValueError(
                "need one utility per party and instance, got "
                f"{len(true_utilities_x)} x-utilities and "
                f"{len(true_utilities_y)} y-utilities"
            )
        if not len(true_utilities_x):
            return []
        claims_x = batched_claims(
            information.equilibrium.strategy_x,
            np.asarray(true_utilities_x, dtype=np.float64),
        )
        claims_y = batched_claims(
            information.equilibrium.strategy_y,
            np.asarray(true_utilities_y, dtype=np.float64),
        )
        # Vectorized conclusion test and transfer; the transfer is
        # computed only where concluded (the reference's guard), so
        # opposing infinite claims never produce a NaN.
        concluded = claims_x + claims_y >= 0.0
        transfers = np.zeros(len(claims_x))
        transfers[concluded] = (claims_x[concluded] - claims_y[concluded]) / 2.0
        return list(
            map(
                NegotiationOutcome._make,
                zip(
                    claims_x.tolist(),
                    claims_y.tolist(),
                    concluded.tolist(),
                    transfers.tolist(),
                    map(float, true_utilities_x),
                    map(float, true_utilities_y),
                ),
            )
        )

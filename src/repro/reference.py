"""Naive reference oracles the batched production paths must match bit for bit.

Only tests and ``benchmarks/`` import this module (an AST test keeps it
that way), so no production class carries a testing fallback.  The
BOSCO oracles draw X's choice set, then Y's, per trial from the ``rng``
they are given: calls in sequence on one ``default_rng(seed)`` reproduce
a ``BoscoService(distribution, seed=seed)`` making the same calls.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.agents.negotiator import CohortEntry, _check_keys
from repro.bargaining.choices import random_choice_set
from repro.bargaining.distributions import JointUtilityDistribution
from repro.bargaining.efficiency import (
    expected_nash_product,
    expected_truthful_nash_product,
    price_of_dishonesty,
)
from repro.bargaining.game import BargainingGame, EquilibriumError
from repro.bargaining.mechanism import (
    BoscoService,
    MechanismInformation,
    NegotiationOutcome,
)
from repro.topology.graph import ASGraph


@dataclass(frozen=True)
class ChoiceSetTrialResult:
    """Outcome of one random choice-set trial during configuration."""

    information: MechanismInformation | None
    converged: bool


def run_trial(
    distribution: JointUtilityDistribution,
    rng: np.random.Generator,
    num_choices: int,
    *,
    truthful_value: float | None = None,
) -> ChoiceSetTrialResult:
    """Draw one trial's choice sets (X, then Y) and solve its game alone."""
    choices_x = random_choice_set(distribution.marginal_x, num_choices, rng)
    choices_y = random_choice_set(distribution.marginal_y, num_choices, rng)
    game = BargainingGame(
        distribution_x=distribution.marginal_x,
        distribution_y=distribution.marginal_y,
        choices_x=choices_x,
        choices_y=choices_y,
    )
    try:
        equilibrium = game.find_equilibrium()
    except EquilibriumError:
        return ChoiceSetTrialResult(information=None, converged=False)
    information = MechanismInformation(
        distribution=distribution,
        choices_x=choices_x,
        choices_y=choices_y,
        equilibrium=equilibrium,
        price_of_dishonesty=price_of_dishonesty(
            equilibrium, distribution, truthful_value=truthful_value
        ),
        expected_nash_product=expected_nash_product(equilibrium, distribution),
    )
    return ChoiceSetTrialResult(information=information, converged=True)


def _trials(
    distribution: JointUtilityDistribution,
    rng: np.random.Generator,
    num_choices: int,
    trials: int,
) -> list[MechanismInformation | None]:
    truthful = expected_truthful_nash_product(distribution)
    return [
        run_trial(distribution, rng, num_choices, truthful_value=truthful).information
        for _ in range(trials)
    ]


def configure(
    distribution: JointUtilityDistribution,
    rng: np.random.Generator,
    num_choices: int,
    trials: int,
) -> MechanismInformation:
    """The trial with the lowest Price of Dishonesty (first on ties)."""
    best: MechanismInformation | None = None
    skipped = 0
    for information in _trials(distribution, rng, num_choices, trials):
        if information is None:
            skipped += 1
        elif best is None or information.price_of_dishonesty < best.price_of_dishonesty:
            best = information
    if best is None:
        raise EquilibriumError(
            "no choice-set trial produced a converging equilibrium",
            skipped_trials=skipped,
        )
    return best


def pod_statistics(
    distribution: JointUtilityDistribution,
    rng: np.random.Generator,
    num_choices: int,
    trials: int,
) -> dict[str, float]:
    """PoD statistics over the converged trials (the Fig. 2 data)."""
    pods = []
    equilibrium_choice_counts = []
    for information in _trials(distribution, rng, num_choices, trials):
        if information is None:
            continue
        pods.append(information.price_of_dishonesty)
        profile = information.equilibrium
        equilibrium_choice_counts.append(
            (
                len(profile.strategy_x.equilibrium_choice_indices())
                + len(profile.strategy_y.equilibrium_choice_indices())
            )
            / 2.0
        )
    skipped = trials - len(pods)
    if not pods:
        raise EquilibriumError(
            "no trial converged; cannot compute PoD statistics",
            skipped_trials=skipped,
        )
    return {
        "min": float(np.min(pods)),
        "mean": float(np.mean(pods)),
        "max": float(np.max(pods)),
        "trials": float(len(pods)),
        "mean_equilibrium_choices": float(np.mean(equilibrium_choice_counts)),
        "skipped_trials": float(skipped),
    }


def decide_sequential(
    mechanisms: Mapping[int, MechanismInformation],
    entries: Sequence[CohortEntry],
) -> list[NegotiationOutcome]:
    """Decide a mixed cohort with one scalar negotiation per entry."""
    _check_keys(mechanisms, entries)
    return [
        BoscoService.negotiate(mechanisms[entry.key], entry.utility_x, entry.utility_y)
        for entry in entries
    ]


def iter_grc_length3_paths(graph: ASGraph, source: int) -> Iterator[tuple[int, int, int]]:
    """Yield every GRC-conforming length-3 path starting at ``source``.

    Paths are tuples ``(source, transit, destination)`` with three
    distinct ASes and two existing links, conforming when ``source`` or
    ``destination`` is a customer of the transit.
    """
    for transit in graph.neighbors(source):
        transit_customers = graph.customers(transit)
        source_is_customer = source in transit_customers
        for destination in graph.neighbors(transit):
            if destination == source:
                continue
            if source_is_customer or destination in transit_customers:
                yield (source, transit, destination)

"""Naive reference oracles the batched production paths must match bit for bit.

Only tests and ``benchmarks/`` import this module (an AST test keeps it
that way), so no production class carries a testing fallback.  The
BOSCO oracles draw X's choice set, then Y's, per trial from the ``rng``
they are given: calls in sequence on one ``default_rng(seed)`` reproduce
a ``BoscoService(distribution, seed=seed)`` making the same calls.  The
MA path index oracle keeps one tuple per path in per-AS dicts and sets,
with the per-AS diversity and pair-metric loops that read it.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.agents.negotiator import CohortEntry, _check_keys
from repro.agreements.agreement import Agreement
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
from repro.core import PathEngine, path_engine_for
from repro.paths.diversity import ASDiversityRecord, sample_ases
from repro.paths.grc import grc_length3_paths
from repro.paths.pair_metrics import PairMetric, PairMetricRecord, PairMetricResult, group_by_pair
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


# ----------------------------------------------------------------------
# MA path index (§VI): dict/set per AS, one tuple per path
# ----------------------------------------------------------------------
@dataclass
class MAPathIndex:
    """Per-AS dict/set index of the length-3 paths created by a set of MAs.

    ``direct[asn]`` maps each path gained as an agreement party to the
    agreement that provides it (the last one, when several do);
    ``indirect[asn]`` holds the paths gained as the subject of other
    ASes' agreements.
    """

    direct: dict[int, dict[tuple[int, int, int], Agreement]] = field(
        default_factory=lambda: defaultdict(dict)
    )
    indirect: dict[int, set[tuple[int, int, int]]] = field(
        default_factory=lambda: defaultdict(set)
    )

    def direct_paths(self, asn: int) -> frozenset[tuple[int, int, int]]:
        return frozenset(self.direct.get(asn, {}))

    def indirect_paths(self, asn: int) -> frozenset[tuple[int, int, int]]:
        return frozenset(self.indirect.get(asn, set()))

    def all_paths(self, asn: int) -> frozenset[tuple[int, int, int]]:
        return self.direct_paths(asn) | self.indirect_paths(asn)

    def top_n_paths(
        self,
        asn: int,
        n: int,
        graph: ASGraph | None = None,
        *,
        grc: frozenset[tuple[int, int, int]] | None = None,
    ) -> frozenset[tuple[int, int, int]]:
        """Directly gained new paths of the AS's ``n`` most productive MAs."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if grc is None:
            grc = grc_length3_paths(graph, asn) if graph is not None else frozenset()
        per_agreement: dict[int, set[tuple[int, int, int]]] = defaultdict(set)
        for path, agreement in self.direct.get(asn, {}).items():
            if path in grc:
                continue
            per_agreement[id(agreement)].add(path)
        ranked = sorted(per_agreement.values(), key=len, reverse=True)
        selected: set[tuple[int, int, int]] = set()
        for paths in ranked[:n]:
            selected.update(paths)
        return frozenset(selected)


def build_ma_path_index(agreements: list[Agreement]) -> MAPathIndex:
    """Index the paths of every agreement segment, one tuple each."""
    index = MAPathIndex()
    for agreement in agreements:
        for segment in agreement.all_segments():
            index.direct[segment.beneficiary][segment.path] = agreement
            index.indirect[segment.target].add(segment.reverse_path)
    return index


def new_ma_paths(
    graph: ASGraph, index: MAPathIndex, asn: int, *, directly_gained_only: bool = False
) -> frozenset[tuple[int, int, int]]:
    """MA paths of an AS that are not already available under the GRC."""
    grc = grc_length3_paths(graph, asn)
    paths = index.direct_paths(asn) if directly_gained_only else index.all_paths(asn)
    return frozenset(path for path in paths if path not in grc)


def analyze_as(
    graph: ASGraph,
    index: MAPathIndex,
    asn: int,
    *,
    top_n_values: tuple[int, ...] = (1, 5, 50),
    engine: PathEngine | None = None,
) -> ASDiversityRecord:
    """Path/destination counts of one AS under every scenario, from path sets."""
    if engine is None:
        engine = path_engine_for(graph)
    grc_paths = engine.paths(asn)
    grc_destinations = engine.destinations(asn)
    direct = index.direct_paths(asn) - grc_paths
    all_ma = index.all_paths(asn) - grc_paths
    path_counts: dict[str, int] = {"GRC": len(grc_paths)}
    destination_counts: dict[str, int] = {"GRC": len(grc_destinations)}
    for n in top_n_values:
        top_paths = index.top_n_paths(asn, n, grc=grc_paths)
        scenario = f"MA* (Top {n})"
        path_counts[scenario] = len(grc_paths) + len(top_paths)
        destination_counts[scenario] = len(grc_destinations | {path[2] for path in top_paths})
    path_counts["MA*"] = len(grc_paths) + len(direct)
    destination_counts["MA*"] = len(grc_destinations | {p[2] for p in direct})
    path_counts["MA"] = len(grc_paths) + len(all_ma)
    destination_counts["MA"] = len(grc_destinations | {p[2] for p in all_ma})
    return ASDiversityRecord(
        asn=asn, path_counts=path_counts, destination_counts=destination_counts
    )


def analyze_pairs(
    graph: ASGraph,
    metric: PairMetric,
    value_of_path: Callable[[tuple[int, int, int]], float],
    *,
    index: MAPathIndex,
    sample_size: int,
    seed: int,
    engine: PathEngine | None = None,
) -> PairMetricResult:
    """One pair-metric record per AS pair, from path sets."""
    if engine is None:
        engine = path_engine_for(graph)
    result = PairMetricResult(metric)
    for source in sample_ases(graph, sample_size, seed=seed):
        grc_paths = engine.paths(source)
        if not grc_paths:
            continue
        grc_by_pair = group_by_pair(grc_paths, value_of_path)
        ma_by_pair = group_by_pair(index.all_paths(source) - grc_paths, value_of_path)
        for (src, dst), grc_values in grc_by_pair.items():
            values = np.array(grc_values)
            result.records.append(
                PairMetricRecord(
                    source=src,
                    destination=dst,
                    grc_min=float(np.min(values)),
                    grc_median=float(np.median(values)),
                    grc_max=float(np.max(values)),
                    ma_values=tuple(ma_by_pair.get((src, dst), ())),
                    metric=metric,
                )
            )
    return result

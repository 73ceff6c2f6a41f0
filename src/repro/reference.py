"""Naive reference oracles the batched production paths must match bit for bit.

Only tests and ``benchmarks/`` import this module (an AST test keeps it
that way), so no production class carries a testing fallback.  The
scalar BOSCO solver — Eqs. 14–17, Algorithm 1, best-response dynamics
and Eqs. 19–20, one trial at a time in pure Python — is the oracle of
:class:`~repro.bargaining.engine.NegotiationEngine`, the one solver in
production.  The BOSCO configuration oracles draw X's choice set, then
Y's, per trial from the ``rng`` they are given: calls in sequence on one
``default_rng(seed)`` reproduce a ``BoscoService(distribution,
seed=seed)`` making the same calls.  The MA path index oracle keeps one
tuple per path in per-AS dicts and sets, with the per-AS diversity and
pair-metric loops that read it.  The §III-B3 extension oracle builds one
:class:`ExtensionAgreement` per (segment, peer) pair and indexes the
length-4 paths they create.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.agents.negotiator import CohortEntry, _check_keys
from repro.agreements.agreement import Agreement
from repro.agreements.extension import ExtensionAgreement, SegmentOffer
from repro.bargaining.choices import ChoiceSet, random_choice_set
from repro.bargaining.distributions import JointUtilityDistribution, UtilityDistribution
from repro.bargaining.efficiency import expected_truthful_nash_product
from repro.bargaining.mechanism import MechanismInformation, NegotiationOutcome
from repro.bargaining.strategy import EquilibriumError, StrategyProfile, ThresholdStrategy
from repro.core import PathEngine, path_engine_for
from repro.paths.diversity import ASDiversityRecord, sample_ases
from repro.paths.grc import grc_length3_paths
from repro.paths.pair_metrics import PairMetric, PairMetricRecord, PairMetricResult
from repro.topology.graph import ASGraph


# ----------------------------------------------------------------------
# The scalar BOSCO solver (§V-C): one trial at a time
# ----------------------------------------------------------------------
def profile_delta(first: tuple[float, ...], second: tuple[float, ...]) -> float:
    """Largest threshold movement between two series; ``∞`` on an infinity mismatch."""
    delta = 0.0
    for a, b in zip(first, second):
        if a == b:
            continue
        if math.isinf(a) or math.isinf(b):
            return float("inf")
        delta = max(delta, abs(a - b))
    return delta


def choice_probabilities(
    strategy: ThresholdStrategy, distribution: UtilityDistribution
) -> list[float]:
    """Probability that each choice is played, ``P[v_Z = v_{Z,i}]`` (Eq. 15)."""
    probabilities = []
    for index in range(len(strategy.choices)):
        low, high = strategy.interval(index)
        low = max(low, distribution.lower)
        high = min(high, distribution.upper)
        probabilities.append(distribution.mass(low, high) if high > low else 0.0)
    return probabilities


def response_lines(
    own_choices: ChoiceSet,
    opponent_choices: ChoiceSet,
    opponent_probabilities: list[float],
) -> tuple[list[float], list[float]]:
    """Slopes ``m_i`` (Eq. 16) and intercepts ``q_i`` (Eq. 17) of the response lines."""
    slopes: list[float] = []
    intercepts: list[float] = []
    for own_value in own_choices.values:
        if math.isinf(own_value):
            # The cancel option never concludes: zero expected utility.
            slopes.append(0.0)
            intercepts.append(0.0)
            continue
        slope = 0.0
        intercept = 0.0
        for opponent_value, probability in zip(
            opponent_choices.values, opponent_probabilities
        ):
            if math.isinf(opponent_value):
                continue
            if opponent_value >= -own_value:
                slope += probability
                intercept += probability * (opponent_value - own_value) / 2.0
        slopes.append(slope)
        intercepts.append(intercept)
    return slopes, intercepts


def truthful_like_strategy(choices: ChoiceSet) -> ThresholdStrategy:
    """The quantized-truthful strategy: claim the largest choice below the truth."""
    thresholds = [float("-inf")]
    thresholds.extend(choices.finite_values)
    return ThresholdStrategy(choices=choices, thresholds=tuple(thresholds))


def compute_best_response(
    choices: ChoiceSet,
    slopes: list[float],
    intercepts: list[float],
) -> ThresholdStrategy:
    """Algorithm 1: best-response thresholds from the upper envelope of the lines."""
    count = len(choices)
    if len(slopes) != count or len(intercepts) != count:
        raise ValueError("need one (slope, intercept) pair per choice")
    for index in range(1, count):
        if slopes[index] < slopes[index - 1] - 1e-12:
            raise ValueError(
                "slopes must be non-decreasing in the choice index (the conclusion "
                "probability grows with the claim)"
            )

    infinity = float("inf")
    thresholds = [infinity] * count
    thresholds[0] = float("-inf")

    # One active line per distinct slope: the first with the highest intercept.
    active: list[int] = []
    index = 0
    while index < count:
        best = index
        runner = index
        while runner < count and slopes[runner] == slopes[index]:
            if intercepts[runner] > intercepts[best]:
                best = runner
            runner += 1
        active.append(best)
        index = runner

    # The line optimal for u → −∞ is the active line with the smallest slope.
    for lower in range(active[0] + 1):
        thresholds[lower] = float("-inf")

    position = 0
    while position + 1 < len(active):
        current = active[position]
        best_crossing = infinity
        best_position = None
        for next_position in range(position + 1, len(active)):
            candidate = active[next_position]
            crossing = (intercepts[current] - intercepts[candidate]) / (
                slopes[candidate] - slopes[current]
            )
            steeper_tie = (
                best_position is not None
                and crossing == best_crossing
                and slopes[candidate] > slopes[active[best_position]]
            )
            if crossing < best_crossing or steeper_tie:
                best_crossing = crossing
                best_position = next_position
        if best_position is None:
            # Every crossing overflowed to +inf (slope gaps too small to
            # divide by): the remaining lines never take over at a finite u.
            break
        thresholds[active[best_position]] = best_crossing
        position = best_position

    # Choices never on the envelope get an empty interval.
    for index in range(active[0] + 1, count):
        if thresholds[index] == infinity:
            later = [thresholds[j] for j in range(index + 1, count)]
            later.append(infinity)
            thresholds[index] = min(later)

    # Enforce monotonicity against floating-point jitter.
    for index in range(1, count):
        if thresholds[index] < thresholds[index - 1]:
            thresholds[index] = thresholds[index - 1]

    return ThresholdStrategy(choices=choices, thresholds=tuple(thresholds))


@dataclass
class BargainingGame:
    """The one-shot bargaining game between two parties (§V-C3)."""

    distribution_x: UtilityDistribution
    distribution_y: UtilityDistribution
    choices_x: ChoiceSet
    choices_y: ChoiceSet

    def best_response(
        self, party: str, opponent_strategy: ThresholdStrategy
    ) -> ThresholdStrategy:
        """Best-response strategy of party ``"x"`` or ``"y"`` against the opponent's."""
        if party == "x":
            own_choices = self.choices_x
            opponent_choices = self.choices_y
            opponent_distribution = self.distribution_y
        elif party == "y":
            own_choices = self.choices_y
            opponent_choices = self.choices_x
            opponent_distribution = self.distribution_x
        else:
            raise ValueError(f"party must be 'x' or 'y', got {party!r}")
        probabilities = choice_probabilities(opponent_strategy, opponent_distribution)
        slopes, intercepts = response_lines(own_choices, opponent_choices, probabilities)
        return compute_best_response(own_choices, slopes, intercepts)

    def find_equilibrium(
        self,
        *,
        initial_x: ThresholdStrategy | None = None,
        initial_y: ThresholdStrategy | None = None,
        max_iterations: int = 200,
        tolerance: float = 1e-12,
    ) -> StrategyProfile:
        """Alternating best-response dynamics over the starting profiles, in order."""
        if initial_x is not None or initial_y is not None:
            starts = [
                (
                    initial_x or truthful_like_strategy(self.choices_x),
                    initial_y or truthful_like_strategy(self.choices_y),
                )
            ]
        else:
            starts = self._default_starting_profiles()
        iterations_used = 0
        last_delta = float("inf")
        for start_x, start_y in starts:
            profile, iterations_used, last_delta = self._iterate_best_responses(
                start_x, start_y, max_iterations=max_iterations, tolerance=tolerance
            )
            if profile is not None:
                return profile
        raise EquilibriumError(
            f"best-response dynamics did not converge within {max_iterations} "
            "iterations from any starting profile",
            iterations=iterations_used,
            last_delta=last_delta,
        )

    def _default_starting_profiles(
        self,
    ) -> list[tuple[ThresholdStrategy, ThresholdStrategy]]:
        """Truthful, truthful/cancel, cancel/truthful, then always-maximal."""
        infinity = float("inf")

        def always_cancel(choices: ChoiceSet) -> ThresholdStrategy:
            thresholds = (float("-inf"),) + (infinity,) * (len(choices) - 1)
            return ThresholdStrategy(choices=choices, thresholds=thresholds)

        def always_maximal(choices: ChoiceSet) -> ThresholdStrategy:
            thresholds = (float("-inf"),) * len(choices)
            return ThresholdStrategy(choices=choices, thresholds=thresholds)

        truthful_x = truthful_like_strategy(self.choices_x)
        truthful_y = truthful_like_strategy(self.choices_y)
        return [
            (truthful_x, truthful_y),
            (truthful_x, always_cancel(self.choices_y)),
            (always_cancel(self.choices_x), truthful_y),
            (always_maximal(self.choices_x), always_maximal(self.choices_y)),
        ]

    def _iterate_best_responses(
        self,
        strategy_x: ThresholdStrategy,
        strategy_y: ThresholdStrategy,
        *,
        max_iterations: int,
        tolerance: float,
    ) -> tuple[StrategyProfile | None, int, float]:
        """``(profile or None on a cycle or timeout, iterations, last_delta)`` of one start."""
        seen: set[tuple[tuple[float, ...], tuple[float, ...]]] = set()
        last_delta = float("inf")
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            next_x = self.best_response("x", strategy_y)
            next_y = self.best_response("y", next_x)
            converged = next_x.approximately_equal(
                strategy_x, tolerance
            ) and next_y.approximately_equal(strategy_y, tolerance)
            last_delta = profile_delta(
                next_x.thresholds + next_y.thresholds,
                strategy_x.thresholds + strategy_y.thresholds,
            )
            strategy_x, strategy_y = next_x, next_y
            if converged:
                profile = StrategyProfile(strategy_x=strategy_x, strategy_y=strategy_y)
                return profile, iteration, last_delta
            signature = (strategy_x.thresholds, strategy_y.thresholds)
            if signature in seen:
                return None, iteration, last_delta
            seen.add(signature)
        return None, iteration, last_delta

    def is_equilibrium(
        self, profile: StrategyProfile, tolerance: float = 1e-9
    ) -> bool:
        """Whether the profile is a pair of mutual best responses (§V-C6)."""
        best_x = self.best_response("x", profile.strategy_y)
        best_y = self.best_response("y", profile.strategy_x)
        return best_x.approximately_equal(
            profile.strategy_x, tolerance
        ) and best_y.approximately_equal(profile.strategy_y, tolerance)


def nash_product_value(
    utility_x: float, utility_y: float, claim_x: float, claim_y: float
) -> float:
    """The Nash bargaining product ``N(u_X, u_Y, v_X, v_Y)`` (Eq. 13)."""
    if math.isinf(claim_x) or math.isinf(claim_y) or claim_x + claim_y < 0.0:
        return 0.0
    transfer = (claim_x - claim_y) / 2.0
    return (utility_x - transfer) * (utility_y + transfer)


def expected_nash_product(
    profile: StrategyProfile, distribution: JointUtilityDistribution
) -> float:
    """``E[N | σ]`` (Eq. 19), summed over the rectangles of the two strategies' intervals."""
    strategy_x, strategy_y = profile.strategy_x, profile.strategy_y
    marginal_x, marginal_y = distribution.marginal_x, distribution.marginal_y
    total = 0.0
    for index_x in range(len(strategy_x.choices)):
        claim_x = strategy_x.choices[index_x]
        if math.isinf(claim_x):
            continue
        low_x, high_x = strategy_x.interval(index_x)
        low_x = max(low_x, marginal_x.lower)
        high_x = min(high_x, marginal_x.upper)
        if high_x <= low_x:
            continue
        mass_x = marginal_x.mass(low_x, high_x)
        mean_x = marginal_x.partial_mean(low_x, high_x)
        for index_y in range(len(strategy_y.choices)):
            claim_y = strategy_y.choices[index_y]
            if math.isinf(claim_y) or claim_x + claim_y < 0.0:
                continue
            low_y, high_y = strategy_y.interval(index_y)
            low_y = max(low_y, marginal_y.lower)
            high_y = min(high_y, marginal_y.upper)
            if high_y <= low_y:
                continue
            mass_y = marginal_y.mass(low_y, high_y)
            mean_y = marginal_y.partial_mean(low_y, high_y)
            transfer = (claim_x - claim_y) / 2.0
            # ∫∫ (u_X − Π)(u_Y + Π) f_X f_Y factorizes because Π is constant
            # on the rectangle.
            total += (mean_x - transfer * mass_x) * (mean_y + transfer * mass_y)
    return total


def price_of_dishonesty(
    profile: StrategyProfile,
    distribution: JointUtilityDistribution,
    *,
    truthful_value: float | None = None,
) -> float:
    """``PoD(σ*) = 1 − E[N | σ*] / E[N | σ⊤]`` (Eq. 20), clamped to ``[0, 1]``."""
    if truthful_value is None:
        truthful_value = expected_truthful_nash_product(distribution)
    if truthful_value <= 0.0:
        raise ValueError(
            "the Price of Dishonesty is undefined when the truthful expected Nash "
            "product is zero"
        )
    value = expected_nash_product(profile, distribution)
    pod = 1.0 - value / truthful_value
    return min(1.0, max(0.0, pod))


def negotiate(
    information: MechanismInformation, true_utility_x: float, true_utility_y: float
) -> NegotiationOutcome:
    """One negotiation under the published equilibrium strategies."""
    claim_x = information.equilibrium.strategy_x(true_utility_x)
    claim_y = information.equilibrium.strategy_y(true_utility_y)
    concluded = claim_x + claim_y >= 0.0
    transfer = (claim_x - claim_y) / 2.0 if concluded else 0.0
    return NegotiationOutcome(
        claim_x=claim_x,
        claim_y=claim_y,
        concluded=concluded,
        transfer_x_to_y=transfer,
        true_utility_x=true_utility_x,
        true_utility_y=true_utility_y,
    )


# ----------------------------------------------------------------------
# BOSCO configuration: one trial, one scalar game
# ----------------------------------------------------------------------
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
        negotiate(mechanisms[entry.key], entry.utility_x, entry.utility_y)
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


def group_by_pair(
    paths: Iterable[tuple[int, int, int]], value_of_path: Callable[[tuple[int, int, int]], float]
) -> dict[tuple[int, int], list[float]]:
    """Group length-3 paths by (source, destination) with their metric values."""
    grouped: dict[tuple[int, int], list[float]] = defaultdict(list)
    for path in paths:
        grouped[(path[0], path[2])].append(value_of_path(path))
    return grouped


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
    """One pair-metric record per AS pair, from path sets and a per-path metric."""
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


# ----------------------------------------------------------------------
# Extension agreements (§III-B3): one object per (segment, peer) pair
# ----------------------------------------------------------------------
@dataclass
class ExtensionPathIndex:
    """Per-AS sets of the length-4 paths gained from extension agreements."""

    paths: dict[int, set[tuple[int, ...]]] = field(default_factory=lambda: defaultdict(set))

    def paths_of(self, asn: int) -> frozenset[tuple[int, ...]]:
        return frozenset(self.paths.get(asn, set()))

    def count(self, asn: int) -> int:
        return len(self.paths.get(asn, set()))


def enumerate_extension_agreements(
    graph: ASGraph, base_agreements: list[Agreement]
) -> list[ExtensionAgreement]:
    """Every segment's beneficiary offers it to each peer not already on it."""
    return [
        ExtensionAgreement(
            party_x=party,
            party_y=peer,
            segment_offers_x=(
                SegmentOffer(owner=party, segment=segment, base_agreement=agreement),
            ),
        )
        for agreement in base_agreements
        for party in agreement.parties
        for segment in agreement.segments_for(party)
        for peer in sorted(graph.peers(party))
        if peer not in segment.path
    ]


def build_extension_path_index(extensions: list[ExtensionAgreement]) -> ExtensionPathIndex:
    """Index the length-4 paths created by extension agreements."""
    index = ExtensionPathIndex()
    for extension in extensions:
        for party in (extension.party_x, extension.party_y):
            index.paths[party].update(extension.extended_paths_for(party))
    return index

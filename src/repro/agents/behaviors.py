"""Pluggable agent behaviors for the heterogeneous marketplace.

The paper's marketplace results (Figs. 2–6, the Eq. 7 utility model,
the §VI Price of Dishonesty) all assume a single strategy profile
shared by every AS.  This module generalizes that setting to a
*population*: every AS carries a named, parameterized
:class:`AgentBehavior` that hooks into the agreement lifecycle at four
points —

- **reporting** — the utility the agent feeds into the published BOSCO
  equilibrium strategy (honest agents report their true Eq. 7 utility;
  dishonest agents shade it, realizing the Fig. 2 Price of Dishonesty
  at population scale);
- **spending** — a cap on the cash compensation an agent will commit to
  (budget-constrained buyers veto agreements whose negotiated transfer
  exceeds their remaining budget);
- **pricing** — a per-agent multiplier on the marketplace unit price
  (regional tiers keyed off the synthetic geography's hub regions);
- **learning** — a post-billing update (adaptive agents grow more
  cautious after terms that realized negative utility, and relax
  again after profitable ones).

Behaviors are frozen :class:`~repro.envelope.JsonCodec` dataclasses:
their constructor parameters *are* their schema, decoded and
type-checked like any request (see :mod:`repro.agents.registry`), and
equal parameters compare equal — which keeps seeded runs
byte-reproducible.  Every behavior owns per-AS mutable state in an
:class:`AgentState`, never on the behavior instance itself, so one
behavior instance can serve thousands of ASes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from repro.envelope import JsonCodec
from repro.errors import ValidationError
from repro.topology.geography import DEFAULT_REGION_HUBS

#: Number of geographic regions agents can belong to — one per synthetic
#: geography hub (see :data:`repro.topology.geography.DEFAULT_REGION_HUBS`).
NUM_REGIONS = len(DEFAULT_REGION_HUBS)

#: Human-readable region names, index-aligned with ``DEFAULT_REGION_HUBS``.
REGION_NAMES: tuple[str, ...] = (
    "new-york",
    "bay-area",
    "frankfurt",
    "london",
    "singapore",
    "tokyo",
    "sao-paulo",
    "delhi",
)

#: Baseline per-region price tiers (transit is priced differently across
#: markets; the spread loosely follows published IP transit price
#: indices: mature markets cheap, under-served regions at a premium).
REGION_PRICE_TIERS: tuple[float, ...] = (
    0.90,  # new-york
    0.95,  # bay-area
    0.90,  # frankfurt
    0.95,  # london
    1.05,  # singapore
    1.00,  # tokyo
    1.20,  # sao-paulo
    1.15,  # delhi
)


@dataclass
class AgentState:
    """Mutable per-AS lifecycle state owned by a behavior.

    Counters feed the per-profile ``profile_metrics`` trace records
    (uptake, realized utility, default rate, misreporting); the scalar
    fields (``caution``, ``budget_remaining``) are the levers adaptive
    and budget-constrained behaviors actually move.
    """

    asn: int
    profile: str
    region: int
    caution: float = 0.0
    budget_remaining: float = math.inf
    negotiations: int = 0
    concluded: int = 0
    vetoed: int = 0
    billed_terms: int = 0
    defaulted_terms: int = 0
    utility_total: float = 0.0
    misreport_total: float = 0.0
    pod_total: float = 0.0
    spend_total: float = 0.0


@dataclass(frozen=True)
class AgentBehavior(JsonCodec):
    """The honest baseline profile — and the hook surface of all others.

    Subclasses override individual hooks; everything not overridden
    behaves exactly like the paper's single-profile marketplace, so a
    population of pure :class:`AgentBehavior` agents reproduces the
    homogeneous ``marketplace`` scenario's economics.
    """

    profile: ClassVar[str] = "honest"
    description: ClassVar[str] = (
        "reports its true Eq. 7 utility and accepts any negotiated transfer"
    )
    decode_error = ValidationError

    #: Preferred BOSCO choice-set cardinality ``W`` (0 = the
    #: marketplace default).  A pair negotiates under the smaller of the
    #: two parties' preferences, and each distinct ``W`` gets its own
    #: published mechanism — the sub-batching axis of mixed cohorts.
    num_choices: int = field(
        default=0, metadata={"doc": "preferred choice-set size W (0 = marketplace default)"}
    )

    def __post_init__(self) -> None:
        if self.num_choices < 0:
            raise ValidationError(
                f"num_choices must be non-negative (0 = marketplace default), "
                f"got {self.num_choices}"
            )

    # -- lifecycle hooks ------------------------------------------------
    def new_state(self, asn: int, region: int) -> AgentState:
        """Fresh per-AS state at marketplace start."""
        return AgentState(asn=asn, profile=self.profile, region=region)

    def reported_utility(self, true_utility: float, state: AgentState) -> float:
        """The utility fed into the equilibrium strategy (honest: the truth)."""
        return true_utility

    def max_spend(self, state: AgentState) -> float:
        """Largest cash transfer the agent will commit to right now."""
        return math.inf

    def commit_spend(self, amount: float, state: AgentState) -> None:
        """Book a committed transfer against the agent's budget."""
        state.spend_total += amount

    def price_multiplier(self, state: AgentState) -> float:
        """Multiplier on the marketplace unit price when this agent bills."""
        return 1.0

    def on_billing(self, realized_utility: float, state: AgentState) -> None:
        """Post-billing learning update (default: none)."""


@dataclass(frozen=True)
class DishonestBehavior(AgentBehavior):
    """Strategically understates its utility to claim more of the surplus.

    The population-scale generalization of Fig. 2's dishonest party:
    the agent reports ``u - shade * |u|``, pushing its equilibrium claim
    toward demanding compensation.  The published Price of Dishonesty
    bounds what this is worth (§V-C); the per-profile metrics make the
    realized cost observable in a mixed population.
    """

    profile: ClassVar[str] = "dishonest"
    description: ClassVar[str] = (
        "understates utility by a fixed shade to claim surplus (Fig. 2 at scale)"
    )

    shade: float = field(
        default=0.25, metadata={"doc": "fraction of |utility| shaved off the report"}
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.shade < 1.0:
            raise ValidationError(
                f"shade must be in [0, 1), got {self.shade:g}"
            )

    def reported_utility(self, true_utility: float, state: AgentState) -> float:
        return true_utility - self.shade * abs(true_utility)


@dataclass(frozen=True)
class AdaptiveBehavior(AgentBehavior):
    """Learns a caution level from billing outcomes.

    Starts from ``initial_caution`` and shades reports like the
    dishonest profile, but the shade moves: a billed term that realized
    negative utility raises caution by ``learning_rate`` (the agent
    demands more compensation next time), a profitable term relaxes it
    by half a step.  Caution is clamped to ``[0, max_caution]``.
    """

    profile: ClassVar[str] = "adaptive"
    description: ClassVar[str] = (
        "adjusts its reporting threshold from realized billing outcomes"
    )

    learning_rate: float = field(
        default=0.1, metadata={"doc": "caution step per losing billed term"}
    )
    initial_caution: float = field(
        default=0.0, metadata={"doc": "starting shade on reported utility"}
    )
    max_caution: float = field(
        default=0.9, metadata={"doc": "upper clamp on the learned shade"}
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate:g}"
            )
        if not 0.0 <= self.initial_caution <= self.max_caution:
            raise ValidationError(
                f"initial_caution must be in [0, max_caution], "
                f"got {self.initial_caution:g}"
            )
        if not 0.0 < self.max_caution < 1.0:
            raise ValidationError(
                f"max_caution must be in (0, 1), got {self.max_caution:g}"
            )

    def new_state(self, asn: int, region: int) -> AgentState:
        return AgentState(
            asn=asn, profile=self.profile, region=region, caution=self.initial_caution
        )

    def reported_utility(self, true_utility: float, state: AgentState) -> float:
        return true_utility - state.caution * abs(true_utility)

    def on_billing(self, realized_utility: float, state: AgentState) -> None:
        if realized_utility < 0.0:
            state.caution = min(self.max_caution, state.caution + self.learning_rate)
        else:
            state.caution = max(0.0, state.caution - 0.5 * self.learning_rate)


@dataclass(frozen=True)
class BudgetBehavior(AgentBehavior):
    """Caps total cash compensation committed across agreement terms.

    Reports honestly, but vetoes any concluded negotiation whose
    transfer would overdraw the remaining budget — the agreement then
    fails exactly as an unconcluded one does (the pair retries later).
    Committed transfers are deducted on activation.
    """

    profile: ClassVar[str] = "budget"
    description: ClassVar[str] = (
        "honest buyer that vetoes transfers exceeding its remaining budget"
    )

    budget: float = field(
        default=50.0, metadata={"doc": "total cash transfer budget across all terms"}
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.budget) and self.budget >= 0.0):
            raise ValidationError(
                f"budget must be a non-negative finite number, got {self.budget!r}"
            )

    def new_state(self, asn: int, region: int) -> AgentState:
        return AgentState(
            asn=asn, profile=self.profile, region=region, budget_remaining=self.budget
        )

    def max_spend(self, state: AgentState) -> float:
        return state.budget_remaining

    def commit_spend(self, amount: float, state: AgentState) -> None:
        state.budget_remaining -= amount
        state.spend_total += amount


@dataclass(frozen=True)
class RegionalBehavior(AgentBehavior):
    """Prices traffic on a regional tier keyed off the topology geography.

    The agent's billing price is the marketplace unit price scaled by
    its region's tier (:data:`REGION_PRICE_TIERS`), with ``intensity``
    interpolating between flat pricing (0) and the full tier spread (1+).
    """

    profile: ClassVar[str] = "regional"
    description: ClassVar[str] = (
        "bills at a regional price tier derived from the geographic embedding"
    )

    intensity: float = field(
        default=1.0, metadata={"doc": "0 = flat pricing, 1 = full regional tier spread"}
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.intensity) and self.intensity >= 0.0):
            raise ValidationError(
                f"intensity must be a non-negative finite number, got {self.intensity!r}"
            )

    def price_multiplier(self, state: AgentState) -> float:
        tier = REGION_PRICE_TIERS[state.region % NUM_REGIONS]
        return 1.0 + self.intensity * (tier - 1.0)

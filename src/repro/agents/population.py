"""Declarative population specs: mapping behavior profiles onto AS sets.

A population spec is a plain JSON document::

    {
      "name": "mixed-market",
      "seed": 7,
      "default_profile": "honest",
      "groups": [
        {"profile": "dishonest", "params": {"shade": 0.3},
         "match": {"role": "stub", "fraction": 0.25}},
        {"profile": "budget", "params": {"budget": 40},
         "match": {"asns": [7, 9]}},
        {"profile": "regional", "match": {"region": 4}},
        {"profile": "adaptive", "match": {"role": "transit", "min_degree": 3}}
      ]
    }

Groups are applied in order onto a default-profile baseline (later
groups override earlier ones), each selecting ASes by *role*
(``stub`` / ``transit`` / ``tier1`` / ``any``), geographic *region*
(hub index of the synthetic geography), degree bounds, or an explicit
ASN list — optionally thinned by a seeded ``fraction`` sample, so the
same spec resolved against the same topology always yields the same
assignment.  The spec, its groups and matches are
:class:`~repro.envelope.JsonCodec` dataclasses, decoded and type-checked
like any request, and each group's ``params`` are decoded by its
behavior class (:func:`~repro.agents.registry.build_behavior`).  Every
bad value is a :class:`~repro.errors.ValidationError` (CLI exit 2, HTTP
400) naming its path, e.g. ``PopulationSpec.groups[].match.region``;
unknown keys and profiles are listed beside the valid ones.

Region membership is derived per AS from a seeded hash
(:func:`assign_regions`), independent of graph iteration order — the
same idiom the stochastic failure model uses for per-link streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.agents.behaviors import NUM_REGIONS, AgentBehavior, AgentState
from repro.agents.registry import build_behavior
from repro.envelope import JsonCodec, read_json_document
from repro.errors import ValidationError
from repro.topology.graph import ASGraph

__all__ = [
    "ROLES",
    "assign_regions",
    "GroupMatch",
    "PopulationGroup",
    "PopulationSpec",
    "Population",
    "default_population_spec",
]

#: Topology roles a group can match on.
ROLES = ("any", "stub", "transit", "tier1")


def assign_regions(graph: ASGraph, *, seed: int = 0) -> dict[int, int]:
    """Seeded per-AS region assignment (hub index of the geography).

    Each AS draws its region from a generator keyed on ``(seed, asn)``,
    so assignments are independent of graph iteration order and stable
    under topology edits elsewhere.
    """
    return {
        asn: int(np.random.default_rng((seed, asn)).integers(0, NUM_REGIONS))
        for asn in graph
    }


@dataclass(frozen=True)
class GroupMatch(JsonCodec):
    """The AS selector of one population group."""

    decode_error = ValidationError

    role: str = "any"
    region: int | None = None
    min_degree: int | None = None
    max_degree: int | None = None
    asns: tuple[int, ...] = ()
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValidationError(
                f"unknown role {self.role!r}; available: {', '.join(ROLES)}"
            )
        if self.region is not None and not 0 <= self.region < NUM_REGIONS:
            raise ValidationError(
                f"region must be in [0, {NUM_REGIONS}), got {self.region}"
            )
        for name, bound in (("min_degree", self.min_degree), ("max_degree", self.max_degree)):
            if bound is not None and bound < 0:
                raise ValidationError(f"{name} must be non-negative, got {bound}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValidationError(
                f"fraction must be in (0, 1], got {self.fraction:g}"
            )
        object.__setattr__(self, "asns", tuple(sorted(set(self.asns))))

    def matches(self, graph: ASGraph, regions: Mapping[int, int], asn: int) -> bool:
        """Whether an AS passes every selector of this match."""
        if self.asns and asn not in self.asns:
            return False
        if self.role == "stub" and not graph.is_stub(asn):
            return False
        if self.role == "transit" and (graph.is_stub(asn) or asn in graph.tier1_ases()):
            return False
        if self.role == "tier1" and asn not in graph.tier1_ases():
            return False
        if self.region is not None and regions.get(asn) != self.region:
            return False
        degree = graph.degree(asn)
        if self.min_degree is not None and degree < self.min_degree:
            return False
        if self.max_degree is not None and degree > self.max_degree:
            return False
        return True


@dataclass(frozen=True)
class PopulationGroup(JsonCodec):
    """One profile→AS-set mapping of a population spec."""

    decode_error = ValidationError

    profile: str
    params: dict[str, Any] = field(default_factory=dict)
    match: GroupMatch = field(default_factory=GroupMatch)

    def __post_init__(self) -> None:
        # Construction is validation: an invalid profile or parameter
        # set fails here, not at resolve time.
        self.behavior()

    def behavior(self) -> AgentBehavior:
        """The validated behavior instance this group assigns."""
        return build_behavior(self.profile, self.params)


@dataclass(frozen=True)
class PopulationSpec(JsonCodec):
    """A validated population document (construction is validation)."""

    decode_error = ValidationError

    name: str = "population"
    seed: int = 0
    default_profile: str = "honest"
    default_params: dict[str, Any] = field(default_factory=dict)
    groups: tuple[PopulationGroup, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("population spec needs a non-empty 'name'")
        if self.seed < 0:
            raise ValidationError(f"population seed must be non-negative, got {self.seed}")
        build_behavior(self.default_profile, self.default_params)

    @classmethod
    def load(cls, path: str | Path) -> "PopulationSpec":
        """Read and validate a population spec JSON file."""
        return cls.from_json_dict(read_json_document(path, "population spec"))

    def resolve(
        self, graph: ASGraph, regions: Mapping[int, int] | None = None
    ) -> "Population":
        """Assign a behavior to every AS of ``graph`` (deterministic).

        Later groups override earlier ones; fractional matches are
        seeded per ``(spec seed, group index)``, so resolution is a
        pure function of (spec, topology).
        """
        if regions is None:
            regions = assign_regions(graph, seed=self.seed)
        default = build_behavior(self.default_profile, self.default_params)
        behaviors: dict[int, AgentBehavior] = {asn: default for asn in sorted(graph)}
        for index, group in enumerate(self.groups):
            candidates = [
                asn for asn in sorted(graph) if group.match.matches(graph, regions, asn)
            ]
            if group.match.fraction < 1.0 and candidates:
                count = max(1, round(group.match.fraction * len(candidates)))
                rng = np.random.default_rng((self.seed, index))
                chosen = rng.choice(len(candidates), size=count, replace=False)
                candidates = [candidates[i] for i in sorted(int(c) for c in chosen)]
            behavior = group.behavior()
            for asn in candidates:
                behaviors[asn] = behavior
        return Population(
            name=self.name, behaviors=behaviors, regions=dict(regions), spec=self
        )


@dataclass(frozen=True)
class Population:
    """A spec resolved against a topology: per-AS behaviors and regions."""

    name: str
    behaviors: dict[int, AgentBehavior]
    regions: dict[int, int]
    spec: PopulationSpec | None = None

    def behavior_for(self, asn: int) -> AgentBehavior:
        """The behavior of an AS (honest baseline for unknown ASes)."""
        behavior = self.behaviors.get(asn)
        return behavior if behavior is not None else AgentBehavior()

    def region_of(self, asn: int) -> int:
        """The region (geography hub index) of an AS."""
        return self.regions.get(asn, 0)

    def new_state(self, asn: int) -> AgentState:
        """Fresh lifecycle state for an AS under its assigned behavior."""
        return self.behavior_for(asn).new_state(asn, self.region_of(asn))

    def choice_widths(self, default: int) -> tuple[int, ...]:
        """Distinct BOSCO cardinalities the population negotiates under."""
        widths = {
            behavior.num_choices or default for behavior in self.behaviors.values()
        }
        widths.add(default)
        return tuple(sorted(widths))

    def census(self) -> dict[str, int]:
        """Number of ASes per profile (sorted by profile name)."""
        counts: dict[str, int] = {}
        for asn in sorted(self.behaviors):
            profile = self.behaviors[asn].profile
            counts[profile] = counts.get(profile, 0) + 1
        return dict(sorted(counts.items()))


def default_population_spec(seed: int = 0) -> PopulationSpec:
    """The built-in mixed population of ``marketplace-heterogeneous``.

    Five profiles over the whole topology: an honest baseline, a
    dishonest cohort shading reports, budget-capped buyers, adaptive
    learners on transit ASes (negotiating under a smaller choice set,
    which exercises mixed-``W`` sub-batching), and regional pricers.
    """
    return PopulationSpec(
        name="builtin-mixed",
        seed=seed,
        default_profile="honest",
        groups=(
            PopulationGroup(
                profile="dishonest",
                params={"shade": 0.25},
                match=GroupMatch(fraction=0.3),
            ),
            PopulationGroup(
                profile="adaptive",
                params={"learning_rate": 0.15, "num_choices": 8},
                match=GroupMatch(role="transit", fraction=0.5),
            ),
            PopulationGroup(
                profile="regional",
                params={"intensity": 1.0},
                match=GroupMatch(fraction=0.2),
            ),
            PopulationGroup(
                profile="budget",
                params={"budget": 2.0},
                match=GroupMatch(fraction=0.2),
            ),
        ),
    )

"""Heterogeneous agent populations for the marketplace simulation.

The subsystem has three layers:

- :mod:`repro.agents.behaviors` / :mod:`repro.agents.registry` — named,
  parameterized behavior profiles (honest, dishonest, adaptive,
  budget-constrained, regional pricing) with introspectable schemas;
- :mod:`repro.agents.population` — declarative JSON population specs
  mapping profiles onto AS sets (by role, region, degree, explicit
  ASNs, seeded fractions), resolved deterministically against a
  topology;
- :mod:`repro.agents.negotiator` — order-preserving sub-batched
  negotiation of mixed cohorts, bit-identical to the per-agent scalar
  reference in :mod:`repro.reference`.
"""

from repro.agents.behaviors import (
    NUM_REGIONS,
    REGION_NAMES,
    REGION_PRICE_TIERS,
    AdaptiveBehavior,
    AgentBehavior,
    AgentState,
    BudgetBehavior,
    DishonestBehavior,
    RegionalBehavior,
)
from repro.agents.negotiator import CohortEntry, decide_mixed_cohort
from repro.agents.population import (
    GroupMatch,
    Population,
    PopulationGroup,
    PopulationSpec,
    assign_regions,
    default_population_spec,
)
from repro.agents.registry import (
    BEHAVIORS,
    behavior_catalog,
    behavior_parameters,
    build_behavior,
    register_behavior,
)

__all__ = [
    "NUM_REGIONS",
    "REGION_NAMES",
    "REGION_PRICE_TIERS",
    "AgentBehavior",
    "AgentState",
    "DishonestBehavior",
    "AdaptiveBehavior",
    "BudgetBehavior",
    "RegionalBehavior",
    "BEHAVIORS",
    "register_behavior",
    "build_behavior",
    "behavior_parameters",
    "behavior_catalog",
    "GroupMatch",
    "PopulationGroup",
    "PopulationSpec",
    "Population",
    "assign_regions",
    "default_population_spec",
    "CohortEntry",
    "decide_mixed_cohort",
]

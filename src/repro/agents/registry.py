"""The behavior registry: named profiles with introspectable schemas.

Behavior variants stay *data, not code*: a population spec names a
profile (``"dishonest"``) and passes parameters (``{"shade": 0.3}``),
and the registry looks up the profile's class, which decodes the
parameters with the request codec (:class:`~repro.envelope.JsonCodec`).
An unknown profile, an unknown or ill-typed parameter (an ``int``
parameter takes JSON integers only) and an out-of-range value all raise
a :class:`~repro.errors.ValidationError` (exit 2 / HTTP 400) naming
what is wrong.

Because behaviors are dataclasses, their constructor signature *is*
their schema: :func:`behavior_catalog` derives the parameter listing
(name, type, default, doc) straight from the dataclass fields, which is
what ``repro agents list`` prints — populations are discoverable
without reading source.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.agents.behaviors import (
    AdaptiveBehavior,
    AgentBehavior,
    BudgetBehavior,
    DishonestBehavior,
    RegionalBehavior,
)
from repro.errors import ValidationError

__all__ = [
    "BEHAVIORS",
    "register_behavior",
    "build_behavior",
    "behavior_parameters",
    "behavior_catalog",
]

#: Registered behavior profiles, keyed by profile name.
BEHAVIORS: dict[str, type[AgentBehavior]] = {}


def register_behavior(behavior_cls: type[AgentBehavior]) -> type[AgentBehavior]:
    """Register a behavior class under its ``profile`` name."""
    name = behavior_cls.profile
    existing = BEHAVIORS.get(name)
    if existing is not None and existing is not behavior_cls:
        raise ValidationError(
            f"behavior profile {name!r} is already registered to "
            f"{existing.__name__}"
        )
    BEHAVIORS[name] = behavior_cls
    return behavior_cls


for _cls in (
    AgentBehavior,
    DishonestBehavior,
    AdaptiveBehavior,
    BudgetBehavior,
    RegionalBehavior,
):
    register_behavior(_cls)


def _behavior_class(profile: str) -> type[AgentBehavior]:
    try:
        return BEHAVIORS[profile]
    except KeyError:
        raise ValidationError(
            f"unknown behavior profile {profile!r}; "
            f"available: {', '.join(sorted(BEHAVIORS))}"
        ) from None


def behavior_parameters(profile: str) -> tuple[dict[str, Any], ...]:
    """The parameter schema of a profile: (name, type, default, doc) rows."""
    return tuple(
        {
            "name": field.name,
            "type": field.type if isinstance(field.type, str) else field.type.__name__,
            "default": field.default,
            "doc": field.metadata.get("doc", ""),
        }
        for field in dataclasses.fields(_behavior_class(profile))
    )


def build_behavior(profile: str, params: Mapping[str, Any] | None = None) -> AgentBehavior:
    """Build (and validate) a behavior instance from a profile + params."""
    return _behavior_class(profile).from_json_dict(params or {})


def behavior_catalog() -> tuple[dict[str, Any], ...]:
    """JSON-safe listing of every registered profile and its schema."""
    catalog = []
    for name in sorted(BEHAVIORS):
        behavior_cls = BEHAVIORS[name]
        catalog.append(
            {
                "profile": name,
                "description": behavior_cls.description,
                "parameters": [dict(row) for row in behavior_parameters(name)],
            }
        )
    return tuple(catalog)

"""Behavior registry: lookup, schema introspection, validation errors."""

import json

import pytest

from repro.agents import (
    BEHAVIORS,
    AdaptiveBehavior,
    AgentBehavior,
    behavior_catalog,
    behavior_parameters,
    build_behavior,
    register_behavior,
)
from repro.errors import ValidationError

BUILTIN_PROFILES = {"honest", "dishonest", "adaptive", "budget", "regional"}


def test_builtin_profiles_are_registered():
    assert BUILTIN_PROFILES <= set(BEHAVIORS)


def test_build_behavior_defaults_and_overrides():
    assert build_behavior("honest") == AgentBehavior()
    built = build_behavior("adaptive", {"learning_rate": 0.3, "num_choices": 8})
    assert built == AdaptiveBehavior(learning_rate=0.3, num_choices=8)


def test_unknown_profile_names_the_alternatives():
    with pytest.raises(ValidationError) as excinfo:
        build_behavior("chaotic")
    message = str(excinfo.value)
    assert "'chaotic'" in message
    for profile in BUILTIN_PROFILES:
        assert profile in message


def test_unknown_parameter_names_the_valid_ones():
    with pytest.raises(ValidationError) as excinfo:
        build_behavior("dishonest", {"greed": 2.0})
    message = str(excinfo.value)
    assert "'greed'" in message
    assert "available: num_choices, shade" in message


def test_non_numeric_parameter_is_rejected():
    with pytest.raises(ValidationError, match="must be a number"):
        build_behavior("dishonest", {"shade": "lots"})
    with pytest.raises(ValidationError, match=r"\.shade must be a number, got boolean"):
        build_behavior("dishonest", {"shade": True})


def test_integer_parameters_take_json_integers_only():
    # The rule every request field follows: 4.0 is a number, not an integer.
    assert build_behavior("honest", {"num_choices": 4}).num_choices == 4
    for value in (4.0, 4.5, "4", True):
        with pytest.raises(ValidationError, match=r"\.num_choices must be an integer"):
            build_behavior("honest", {"num_choices": value})


def test_behavior_parameters_expose_the_schema():
    rows = {row["name"]: row for row in behavior_parameters("adaptive")}
    assert rows["learning_rate"]["default"] == 0.1
    assert rows["learning_rate"]["doc"]
    assert rows["num_choices"]["type"] in ("int", int)


def test_catalog_is_sorted_and_json_safe():
    catalog = behavior_catalog()
    names = [entry["profile"] for entry in catalog]
    assert names == sorted(names)
    assert BUILTIN_PROFILES <= set(names)
    json.dumps(catalog)  # strictly serializable
    for entry in catalog:
        assert entry["description"]
        assert isinstance(entry["parameters"], list)


def test_register_rejects_profile_collisions():
    class Impostor(AgentBehavior):
        profile = "honest"

    with pytest.raises(ValidationError, match="already registered"):
        register_behavior(Impostor)
    # Re-registering the same class is idempotent.
    assert register_behavior(AgentBehavior) is AgentBehavior

"""Population specs: parsing, validation taxonomy, seeded resolution."""

import json

import pytest

from repro.agents import (
    NUM_REGIONS,
    GroupMatch,
    Population,
    PopulationGroup,
    PopulationSpec,
    assign_regions,
    default_population_spec,
)
from repro.errors import ValidationError
from repro.topology.generator import generate_topology


@pytest.fixture(scope="module")
def graph():
    return generate_topology(
        num_tier1=3, num_tier2=6, num_tier3=12, num_stubs=30, seed=11
    ).graph


SPEC_DATA = {
    "name": "test-pop",
    "seed": 5,
    "default_profile": "honest",
    "groups": [
        {
            "profile": "dishonest",
            "params": {"shade": 0.4},
            "match": {"role": "stub", "fraction": 0.5},
        },
        {"profile": "budget", "params": {"budget": 5.0}, "match": {"role": "tier1"}},
    ],
}


def budget_group(**fields):
    """A one-group population document (a budget group unless overridden)."""
    return {"groups": [{"profile": "budget", **fields}]}


class TestParsing:
    def test_round_trip_through_to_json_dict(self):
        spec = PopulationSpec.from_json_dict(SPEC_DATA)
        again = PopulationSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_load_reads_a_json_file(self, tmp_path):
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(SPEC_DATA), encoding="utf-8")
        assert PopulationSpec.load(path) == PopulationSpec.from_json_dict(SPEC_DATA)

    def test_missing_file_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read population spec"):
            PopulationSpec.load(tmp_path / "absent.json")

    def test_invalid_json_is_a_validation_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            PopulationSpec.load(path)

    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ValidationError) as excinfo:
            PopulationSpec.from_json_dict({**SPEC_DATA, "warp": 1})
        assert str(excinfo.value) == (
            "unknown PopulationSpec field(s) 'warp'; "
            "available: default_params, default_profile, groups, name, seed"
        )

    def test_unknown_match_key_is_named(self):
        with pytest.raises(ValidationError) as excinfo:
            GroupMatch.from_json_dict({"speed": 3})
        message = str(excinfo.value)
        assert "'speed'" in message
        assert "available: asns, fraction, max_degree, min_degree, region, role" in message

    def test_unknown_parameter_is_named_with_the_valid_ones(self):
        with pytest.raises(ValidationError) as excinfo:
            PopulationSpec.from_json_dict(budget_group(profile="dishonest", params={"greed": 2}))
        assert str(excinfo.value) == (
            "unknown DishonestBehavior field(s) 'greed'; available: num_choices, shade"
        )

    @pytest.mark.parametrize(
        ("data", "message"),
        [
            (
                budget_group(match={"region": "3"}),
                "PopulationSpec.groups[].match.region must be an integer, got string",
            ),
            (
                budget_group(match={"min_degree": "2"}),
                "PopulationSpec.groups[].match.min_degree must be an integer, got string",
            ),
            (
                budget_group(profile=["dishonest"]),
                "PopulationSpec.groups[].profile must be a string, got array",
            ),
            ({"seed": "abc"}, "PopulationSpec.seed must be an integer, got string"),
            ({"groups": {}}, "PopulationSpec.groups must be an array, got object"),
            ({"default_params": [1]}, "PopulationSpec.default_params must be an object, got array"),
            # Values that used to be coerced (int("7"), int(1.5)) or accepted.
            ({"seed": "7"}, "PopulationSpec.seed must be an integer, got string"),
            ({"seed": 1.5}, "PopulationSpec.seed must be an integer, got number"),
            ({"seed": True}, "PopulationSpec.seed must be an integer, got boolean"),
            ({"name": 5}, "PopulationSpec.name must be a string, got integer"),
            (
                budget_group(match={"fraction": True}),
                "PopulationSpec.groups[].match.fraction must be a number, got boolean",
            ),
        ],
    )
    def test_ill_typed_fields_name_their_path(self, data, message):
        with pytest.raises(ValidationError) as excinfo:
            PopulationSpec.from_json_dict(data)
        assert str(excinfo.value) == message

    def test_group_without_profile_is_rejected(self):
        with pytest.raises(ValidationError, match="'profile'"):
            PopulationGroup.from_json_dict({"match": {"role": "stub"}})

    def test_bad_values_are_rejected(self):
        with pytest.raises(ValidationError, match="unknown role"):
            GroupMatch(role="wizard")
        with pytest.raises(ValidationError, match="fraction"):
            GroupMatch(fraction=0.0)
        with pytest.raises(ValidationError, match="region"):
            GroupMatch(region=NUM_REGIONS)
        with pytest.raises(ValidationError, match="seed"):
            PopulationSpec(seed=-1)


class TestRegions:
    def test_assignment_is_deterministic_and_order_independent(self, graph):
        regions = assign_regions(graph, seed=3)
        assert regions == assign_regions(graph, seed=3)
        assert set(regions) == set(graph)
        assert all(0 <= region < NUM_REGIONS for region in regions.values())

    def test_seed_changes_the_embedding(self, graph):
        assert assign_regions(graph, seed=3) != assign_regions(graph, seed=4)


class TestResolution:
    def test_groups_apply_in_order_with_later_overrides(self, graph):
        spec = PopulationSpec.from_json_dict(
            {
                "name": "override",
                "groups": [
                    {"profile": "dishonest"},
                    {"profile": "budget", "match": {"role": "tier1"}},
                ],
            }
        )
        population = spec.resolve(graph)
        tier1 = graph.tier1_ases()
        for asn in graph:
            expected = "budget" if asn in tier1 else "dishonest"
            assert population.behavior_for(asn).profile == expected

    def test_fraction_sampling_is_seeded_and_sized(self, graph):
        spec = PopulationSpec.from_json_dict(SPEC_DATA)
        population = spec.resolve(graph)
        again = spec.resolve(graph)
        assert population.census() == again.census()
        assert {a for a, b in population.behaviors.items() if b.profile == "dishonest"} == {
            a for a, b in again.behaviors.items() if b.profile == "dishonest"
        }
        stubs = [asn for asn in graph if graph.is_stub(asn)]
        assert population.census()["dishonest"] == max(1, round(0.5 * len(stubs)))

    def test_census_counts_every_as(self, graph):
        population = PopulationSpec.from_json_dict(SPEC_DATA).resolve(graph)
        assert sum(population.census().values()) == len(graph)

    def test_unknown_as_falls_back_to_honest(self, graph):
        population = PopulationSpec().resolve(graph)
        assert population.behavior_for(10**9).profile == "honest"
        assert population.region_of(10**9) == 0

    def test_choice_widths_include_default_and_preferences(self, graph):
        spec = PopulationSpec.from_json_dict(
            {
                "name": "widths",
                "groups": [{"profile": "adaptive", "params": {"num_choices": 8}}],
            }
        )
        assert spec.resolve(graph).choice_widths(20) == (8, 20)
        assert PopulationSpec().resolve(graph).choice_widths(20) == (20,)


class TestBuiltinSpec:
    def test_mixes_at_least_four_profiles(self, graph):
        population = default_population_spec(seed=2021).resolve(graph)
        assert len(population.census()) >= 4

    def test_population_type_is_exported(self, graph):
        assert isinstance(default_population_spec().resolve(graph), Population)

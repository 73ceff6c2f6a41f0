"""Sweep spec parsing, validation, and deterministic expansion."""

import pytest

from repro.errors import ValidationError
from repro.experiments.runner import FIGURES
from repro.simulation.scenarios import scenario_field_names
from repro.sweep import (
    NAMED_SCALES,
    SweepSpec,
    smoke_spec,
)


def minimal_mapping(**overrides):
    data = {
        "name": "t",
        "scales": ["tiny"],
        "seeds": [1],
        "figures": ["fig3"],
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_named_and_inline_scales(self):
        spec = SweepSpec.from_mapping(
            minimal_mapping(
                scales=[
                    "tiny",
                    {"name": "custom", "num_tier1": 2, "num_stubs": 20},
                ]
            )
        )
        assert spec.scales[0] == NAMED_SCALES["tiny"]
        custom = spec.scales[1]
        assert custom.name == "custom"
        assert custom.num_tier1 == 2
        assert custom.num_stubs == 20
        # Unspecified fields inherit the tiny defaults.
        assert custom.sample_size == NAMED_SCALES["tiny"].sample_size

    def test_unknown_named_scale_rejected(self):
        with pytest.raises(ValidationError, match="unknown named scale"):
            SweepSpec.from_mapping(minimal_mapping(scales=["galactic"]))

    def test_unknown_scale_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown ScaleSpec field"):
            SweepSpec.from_mapping(
                minimal_mapping(scales=[{"name": "x", "num_planets": 9}])
            )

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValidationError, match="unknown figure"):
            SweepSpec.from_mapping(minimal_mapping(figures=["fig9"]))

    def test_figures_normalized_to_canonical_order(self):
        spec = SweepSpec.from_mapping(minimal_mapping(figures=["fig5", "fig3"]))
        assert spec.figures == ("fig3", "fig5")
        keys = [entry.key for entry in FIGURES]
        assert sorted(spec.figures, key=keys.index) == list(spec.figures)

    def test_scenario_unknown_field_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            SweepSpec.from_mapping(
                minimal_mapping(
                    figures=[],
                    scenarios=[{"scenario": "failure-churn", "warp_factor": 9}],
                )
            )
        assert str(excinfo.value) == (
            "unknown FailureChurnScenario field(s) 'warp_factor'; available: "
            + ", ".join(sorted(scenario_field_names("failure-churn")))
        )

    def test_scenario_string_override_accepted(self):
        # Population spec paths are legal sweep-axis values.
        spec = SweepSpec.from_mapping(
            minimal_mapping(
                figures=[],
                scenarios=[
                    {
                        "scenario": "marketplace-heterogeneous",
                        "population": "pops/mixed.json",
                    }
                ],
            )
        )
        (scenario,) = spec.scenarios
        assert dict(scenario.overrides)["population"] == "pops/mixed.json"

    def test_scenario_non_scalar_override_rejected(self):
        with pytest.raises(
            ValidationError,
            match=r"HeterogeneousMarketplaceScenario\.population must be a string, got array",
        ):
            SweepSpec.from_mapping(
                minimal_mapping(
                    figures=[],
                    scenarios=[
                        {"scenario": "marketplace-heterogeneous", "population": [1]}
                    ],
                )
            )

    def test_scenario_seed_override_rejected(self):
        with pytest.raises(ValidationError, match="cannot set 'seed'"):
            SweepSpec.from_mapping(
                minimal_mapping(
                    figures=[],
                    scenarios=[{"scenario": "failure-churn", "seed": 5}],
                )
            )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            SweepSpec.from_mapping(
                minimal_mapping(figures=[], scenarios=[{"scenario": "apocalypse"}])
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(ValidationError, match="at least one scale"):
            SweepSpec.from_mapping(minimal_mapping(scales=[]))
        with pytest.raises(ValidationError, match="at least one seed"):
            SweepSpec.from_mapping(minimal_mapping(seeds=[]))
        with pytest.raises(ValidationError, match="'figures' and/or 'scenarios'"):
            SweepSpec.from_mapping(minimal_mapping(figures=[]))

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown SweepSpec field"):
            SweepSpec.from_mapping(minimal_mapping(shards=3))

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"name": "f", "scales": ["tiny"], "seeds": [4], "figures": ["fig4"]}')
        spec = SweepSpec.from_json_file(path)
        assert spec.name == "f"
        assert spec.seeds == (4,)

    def test_from_json_file_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="not valid JSON"):
            SweepSpec.from_json_file(path)
        with pytest.raises(ValidationError, match="cannot read"):
            SweepSpec.from_json_file(tmp_path / "missing.json")


class TestExpansion:
    def test_grid_size_and_order(self):
        spec = SweepSpec.from_mapping(
            minimal_mapping(
                scales=["tiny", "small"],
                seeds=[1, 2, 3],
                figures=["fig3"],
                scenarios=[
                    {"scenario": "failure-churn", "label": "a"},
                    {"scenario": "failure-churn", "label": "b", "duration": 3.0},
                ],
            )
        )
        shards = spec.expand()
        # 2 scales x 3 seeds figure shards + 2 scenarios x 2 scales x 3 seeds.
        assert len(shards) == 6 + 12
        assert shards == spec.expand()  # deterministic
        ids = [shard.shard_id for shard in shards]
        assert len(set(ids)) == len(ids)
        # Figure shards first, scale-major then seed; then scenarios.
        assert ids[0] == "figures/tiny/seed1"
        assert ids[1] == "figures/tiny/seed2"
        assert ids[3] == "figures/small/seed1"
        assert ids[6] == "scenario/a/tiny/seed1"

    def test_smoke_spec_covers_acceptance_grid(self):
        spec = smoke_spec()
        shards = spec.expand()
        scenario_shards = [s for s in shards if s.kind == "scenario"]
        # 2 scales x 3 seeds x 2 scenario configs.
        assert len(scenario_shards) == 12
        assert len(shards) >= 12

    def test_sampling_is_seeded_and_order_preserving(self):
        base = minimal_mapping(scales=["tiny", "small"], seeds=[1, 2, 3, 4, 5])
        sampled = SweepSpec.from_mapping(
            dict(base, sample={"count": 4, "seed": 9})
        ).expand()
        again = SweepSpec.from_mapping(
            dict(base, sample={"count": 4, "seed": 9})
        ).expand()
        other_seed = SweepSpec.from_mapping(
            dict(base, sample={"count": 4, "seed": 10})
        ).expand()
        full = SweepSpec.from_mapping(base).expand()
        assert sampled == again
        assert len(sampled) == 4
        assert sampled != other_seed
        # Selection preserves grid order.
        positions = [full.index(shard) for shard in sampled]
        assert positions == sorted(positions)

    def test_shard_params_and_groups(self):
        spec = smoke_spec()
        for shard in spec.expand():
            params = shard.params()
            assert params["kind"] == shard.kind
            assert params["seed"] == shard.seed
            assert shard.group_id in shard.shard_id
            assert f"seed{shard.seed}" in shard.shard_id


class TestHash:
    def test_spec_hash_stable_and_sensitive(self):
        a = SweepSpec.from_mapping(minimal_mapping())
        b = SweepSpec.from_mapping(minimal_mapping())
        c = SweepSpec.from_mapping(minimal_mapping(seeds=[2]))
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != c.spec_hash()


class TestWrongTypedFields:
    def test_non_list_axes_raise_spec_errors(self):
        for field, value in (
            ("seeds", 5),
            ("scales", "tiny"),
            ("figures", "fig3"),
            ("scenarios", {"scenario": "failure-churn"}),
        ):
            with pytest.raises(ValidationError, match=rf"SweepSpec\.{field} must be an array"):
                SweepSpec.from_mapping(minimal_mapping(**{field: value}))

    @pytest.mark.parametrize(
        ("override", "message"),
        [
            ({"duration": "abc"}, r"FailureChurnScenario\.duration must be a number, got string"),
            ({"num_pairs": 2.5}, r"FailureChurnScenario\.num_pairs must be an integer, got number"),
            (
                {"mean_time_to_failure": True},
                r"FailureChurnScenario\.mean_time_to_failure must be a number, got boolean",
            ),
        ],
    )
    def test_ill_typed_scenario_override_is_named(self, override, message):
        # These used to pass validation and fail (or run) inside the shard.
        with pytest.raises(ValidationError, match=message):
            SweepSpec.from_mapping(
                minimal_mapping(figures=[], scenarios=[{"scenario": "failure-churn", **override}])
            )

    def test_non_integer_seed_entry_is_named(self):
        # Regression: an unhashable entry used to reach set() first (TypeError).
        for seeds in ([[1]], [1, [1]], ["1"], [True]):
            with pytest.raises(ValidationError, match=r"SweepSpec\.seeds\[\] must be an integer"):
                SweepSpec.from_mapping(minimal_mapping(seeds=seeds))

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            # Unknown keys: at the top level and in each nested object.
            ({"shards": 3}, r"unknown SweepSpec field\(s\) 'shards'"),
            ({"sample": {"count": 1, "bogus": 2}}, r"unknown SweepSpec\.sample field\(s\) 'bogus'"),
            ({"scales": [{"name": "x", "bogus": 1}]}, r"unknown ScaleSpec field\(s\) 'bogus'"),
            (
                {"figures": [], "scenarios": [{"scenario": "failure-churn", "bogus": 1}]},
                r"unknown FailureChurnScenario field\(s\) 'bogus'",
            ),
            # Wrong JSON types, booleans included, in each field.
            ({"name": True}, r"SweepSpec\.name must be a string, got boolean"),
            ({"scales": {"name": "x"}}, r"SweepSpec\.scales must be an array, got object"),
            ({"scales": [True]}, r"unknown named scale True in SweepSpec\.scales\[\]"),
            ({"scales": [{"name": 5}]}, r"ScaleSpec\.name must be a string, got integer"),
            (
                {"scales": [{"name": "x", "num_stubs": True}]},
                r"ScaleSpec\.num_stubs must be an integer, got boolean",
            ),
            (
                {"scales": [{"name": "x", "sample_size": 2.5}]},
                r"ScaleSpec\.sample_size must be an integer, got number",
            ),
            # Values a JSON type cannot rule out.
            (
                {"scales": [{"name": "x", "num_stubs": 0}]},
                r"ScaleSpec\.num_stubs must be positive, got 0",
            ),
            ({"sample": {"count": 0}}, r"SweepSpec\.sample\.count must be positive, got 0"),
            ({"seeds": True}, r"SweepSpec\.seeds must be an array, got boolean"),
            ({"seeds": [False]}, r"SweepSpec\.seeds\[\] must be an integer, got boolean"),
            ({"figures": "fig3"}, r"SweepSpec\.figures must be an array, got string"),
            ({"figures": [True]}, r"SweepSpec\.figures\[\] must be a string, got boolean"),
            ({"scenarios": {}}, r"SweepSpec\.scenarios must be an array, got object"),
            ({"scenarios": [True]}, r"SweepSpec\.scenarios\[\] must be an object, got True"),
            ({"figures": [], "scenarios": [{"scenario": True}]}, r"unknown scenario True"),
            (
                {"figures": [], "scenarios": [{"scenario": "failure-churn", "label": False}]},
                r"SweepSpec\.scenarios\[\]\.label must be a non-empty string, got False",
            ),
            (
                {"figures": [], "scenarios": [{"scenario": "failure-churn", "num_pairs": True}]},
                r"FailureChurnScenario\.num_pairs must be an integer, got boolean",
            ),
            ({"sample": [4]}, r"SweepSpec\.sample must be an object, got array"),
            (
                {"sample": {"count": True}},
                r"SweepSpec\.sample\.count must be an integer, got boolean",
            ),
            (
                {"sample": {"count": 2, "seed": "7"}},
                r"SweepSpec\.sample\.seed must be an integer, got string",
            ),
        ],
    )
    def test_decoder_rejects_and_names_the_field(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            SweepSpec.from_mapping(minimal_mapping(**overrides))

    def test_non_string_figure_entry_rejected(self):
        with pytest.raises(ValidationError, match=r"SweepSpec\.figures\[\] must be a string"):
            SweepSpec.from_mapping(minimal_mapping(figures=[3]))

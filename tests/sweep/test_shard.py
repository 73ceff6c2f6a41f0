"""Single-shard execution: metrics content and scenario overrides."""

import json

import pytest

from repro.errors import ValidationError
from repro.simulation.scenarios import run_scenario, scenario_field_names
from repro.sweep import SweepSpec, run_shard


def spec_for(**overrides):
    data = {
        "name": "s",
        "scales": [
            {
                "name": "t",
                "num_tier1": 2,
                "num_tier2": 5,
                "num_tier3": 12,
                "num_stubs": 30,
                "sample_size": 20,
                "pair_sample_size": 8,
            }
        ],
        "seeds": [7],
    }
    data.update(overrides)
    return SweepSpec.from_mapping(data)


def test_figures_shard_metrics_are_json_safe_and_deterministic():
    spec = spec_for(figures=["fig2", "fig3", "fig4", "fig5", "fig6"])
    (shard,) = spec.expand()
    record = run_shard(shard)
    again = run_shard(shard)
    assert record == again
    json.dumps(record)  # strict-JSON serializable (no NaN/inf)
    metrics = record["metrics"]
    assert metrics["fig3.ma_mean_paths"] >= metrics["fig3.grc_mean_paths"]
    assert metrics["fig4.ma_mean_destinations"] >= metrics["fig4.grc_mean_destinations"]
    assert 0.0 <= metrics["fig2.best_pod_u1"] <= 1.0
    assert len(record["topology_fingerprint"]) == 64


def test_fig5_fig6_shard_metrics_are_pinned():
    # Exact values (``==`` on floats) of the sweep's Fig. 5/6 keys.
    (shard,) = spec_for(figures=["fig5", "fig6"]).expand()
    assert run_shard(shard)["metrics"] == {
        "fig5.pairs_below_grc_min": 0.20895522388059706,
        "fig5.pairs_below_grc_median": 0.21890547263681592,
        "fig5.median_reduction": 0.2508164346294475,
        "fig6.pairs_above_grc_max": 0.03980099502487566,
        "fig6.pairs_above_grc_min": 0.04477611940298509,
        "fig6.median_increase": 0.5861244019138756,
    }


def test_fig2_only_shard_skips_topology_work():
    spec = spec_for(figures=["fig2"])
    (shard,) = spec.expand()
    record = run_shard(shard)
    assert record["topology_fingerprint"] is None
    assert set(record["metrics"]) == {"fig2.best_pod_u1", "fig2.best_pod_u2"}


def test_scenario_shard_applies_scale_and_overrides():
    spec = spec_for(
        scenarios=[
            {"scenario": "failure-churn", "label": "short", "duration": 2.0},
            {"scenario": "failure-churn", "label": "long", "duration": 8.0},
        ]
    )
    short, long = spec.expand()
    short_record = run_shard(short)
    long_record = run_shard(long)
    assert short_record["metrics"]["trace_records"] < long_record["metrics"]["trace_records"]
    assert "availability.BGP" in short_record["metrics"]
    assert "availability.PAN" in short_record["metrics"]


def test_scenario_overrides_reach_run_scenario():
    short = run_scenario("failure-churn", seed=3, duration=2.0, num_stubs=10)
    assert short.duration == 2.0


def test_unknown_override_is_a_validation_error_naming_the_fields():
    # Regression: the unknown-key error must be ValidationError (exit 2
    # taxonomy, not TypeError) and must name BOTH the invalid key and
    # the full valid field list.
    with pytest.raises(ValidationError) as excinfo:
        run_scenario("failure-churn", warp_factor=9)
    message = str(excinfo.value)
    assert message.startswith("unknown FailureChurnScenario field(s) 'warp_factor'; ")
    assert message.endswith(
        "available: " + ", ".join(sorted(scenario_field_names("failure-churn")))
    )


def test_ill_typed_override_is_a_validation_error_naming_the_field():
    with pytest.raises(ValidationError, match=r"\.num_pairs must be an integer, got number"):
        run_scenario("failure-churn", num_pairs=2.5)


def test_heterogeneous_scenario_shard_is_parallel_deterministic(tmp_path):
    from repro.sweep import run_sweep

    spec = spec_for(
        scenarios=[
            {
                "scenario": "marketplace-heterogeneous",
                "label": "het",
                "duration": 24.0 * 8.0,
            }
        ]
    )
    sequential = run_sweep(
        spec, jobs=1, cache_dir=tmp_path / "c1", out_dir=tmp_path / "o1"
    )
    parallel = run_sweep(
        spec, jobs=2, cache_dir=tmp_path / "c2", out_dir=tmp_path / "o2"
    )
    assert parallel.summary_bytes() == sequential.summary_bytes()
    (record,) = sequential.summary["shards"]
    assert record["metrics"]["records.profile_metrics"] >= 4


def test_population_path_is_a_sweepable_string_override(tmp_path):
    # Population spec paths ride the scenario-override axis as strings.
    pop = tmp_path / "pop.json"
    pop.write_text(
        json.dumps(
            {
                "name": "all-dishonest",
                "groups": [{"profile": "dishonest", "params": {"shade": 0.4}}],
            }
        ),
        encoding="utf-8",
    )
    spec = spec_for(
        scenarios=[
            {
                "scenario": "marketplace-heterogeneous",
                "label": "pop",
                "duration": 24.0 * 4.0,
                "population": str(pop),
            }
        ]
    )
    (shard,) = spec.expand()
    record = run_shard(shard)
    assert record["metrics"]["records.profile_metrics"] == 1  # one profile


def test_scenario_field_names_expose_sweepable_knobs():
    fields = scenario_field_names("failure-churn")
    assert {"duration", "mean_time_to_failure", "num_stubs", "seed"} <= fields
    assert "name" not in fields
    with pytest.raises(KeyError, match="unknown scenario"):
        scenario_field_names("apocalypse")

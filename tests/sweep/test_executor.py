"""Sweep execution: determinism, resume, and targeted cache invalidation.

These are the acceptance tests of the sweep orchestrator: the same spec
must serialize byte-identically no matter how it was scheduled (fresh,
fully cached, resumed after a simulated kill, sequential or parallel),
and dirtying one shard's parameters must recompute exactly that shard.
"""

import pytest

from repro.sweep import SweepSpec, run_sweep


def tiny_mapping(**overrides):
    """A 4-shard grid small enough to run many times in one test module."""
    data = {
        "name": "tiny-test",
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
        "seeds": [1, 2],
        "figures": ["fig3", "fig4"],
        "scenarios": [
            {"scenario": "failure-churn", "label": "churn", "duration": 4.0}
        ],
    }
    data.update(overrides)
    return data


@pytest.fixture()
def tiny_spec():
    return SweepSpec.from_mapping(tiny_mapping())


def test_rerun_is_fully_cached_and_byte_identical(tiny_spec, tmp_path):
    first = run_sweep(tiny_spec, cache_dir=tmp_path / "c", out_dir=tmp_path / "o1")
    second = run_sweep(tiny_spec, cache_dir=tmp_path / "c", out_dir=tmp_path / "o2")
    assert len(first.executed) == 4 and not first.reused
    assert len(second.reused) == 4 and not second.executed
    assert first.summary_bytes() == second.summary_bytes()
    assert (
        (tmp_path / "o1" / "sweep_summary.json").read_bytes()
        == (tmp_path / "o2" / "sweep_summary.json").read_bytes()
    )
    # The CSV tables are byte-reproducible too.
    tables1 = sorted((tmp_path / "o1" / "tables").iterdir())
    tables2 = sorted((tmp_path / "o2" / "tables").iterdir())
    assert [p.name for p in tables1] == [p.name for p in tables2]
    for left, right in zip(tables1, tables2):
        assert left.read_bytes() == right.read_bytes()


def test_interrupted_run_resumes_only_missing_shards(tiny_spec, tmp_path):
    from repro.core.store import Store, store_key
    from repro.sweep.executor import SHARD_NAMESPACE

    reference = run_sweep(tiny_spec, cache_dir=tmp_path / "c", out_dir=tmp_path / "o")
    # Simulate a kill mid-run: two shards never got their cache entry.
    shards = tiny_spec.expand()
    store = Store(tmp_path / "c")
    killed = [shards[1], shards[3]]
    for shard in killed:
        store.path(store_key(SHARD_NAMESPACE, shard.params())).unlink()
    resumed = run_sweep(tiny_spec, cache_dir=tmp_path / "c", out_dir=tmp_path / "o2")
    assert sorted(resumed.executed) == sorted(shard.shard_id for shard in killed)
    assert len(resumed.reused) == 2
    assert resumed.summary_bytes() == reference.summary_bytes()


def test_changed_shard_param_recomputes_only_that_shard(tmp_path):
    base = SweepSpec.from_mapping(tiny_mapping())
    run_sweep(base, cache_dir=tmp_path / "c", out_dir=tmp_path / "o")
    # Dirty only the scenario configuration; figure shards are untouched.
    changed = SweepSpec.from_mapping(
        tiny_mapping(
            scenarios=[
                {"scenario": "failure-churn", "label": "churn", "duration": 5.0}
            ]
        )
    )
    result = run_sweep(changed, cache_dir=tmp_path / "c", out_dir=tmp_path / "o2")
    assert sorted(result.executed) == [
        "scenario/churn/t/seed1",
        "scenario/churn/t/seed2",
    ]
    assert sorted(result.reused) == ["figures/t/seed1", "figures/t/seed2"]


def test_parallel_equals_sequential(tiny_spec, tmp_path):
    sequential = run_sweep(
        tiny_spec, jobs=1, cache_dir=tmp_path / "c1", out_dir=tmp_path / "o1"
    )
    parallel = run_sweep(
        tiny_spec, jobs=2, cache_dir=tmp_path / "c2", out_dir=tmp_path / "o2"
    )
    assert len(parallel.executed) == 4  # fresh cache: nothing reused
    assert parallel.summary_bytes() == sequential.summary_bytes()


def test_parallel_run_writes_only_its_cache_and_outputs(tiny_spec, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sequential = run_sweep(tiny_spec, jobs=1, cache_dir="c1", out_dir="o1")
    parallel = run_sweep(tiny_spec, jobs=2, cache_dir="c2", out_dir="o2")
    assert parallel.summary_bytes() == sequential.summary_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c1", "c2", "o1", "o2"]


def test_force_recomputes_everything(tiny_spec, tmp_path):
    run_sweep(tiny_spec, cache_dir=tmp_path / "c", out_dir=tmp_path / "o")
    forced = run_sweep(
        tiny_spec, cache_dir=tmp_path / "c", out_dir=tmp_path / "o", force=True
    )
    assert len(forced.executed) == 4 and not forced.reused


def test_summary_structure(tiny_spec, tmp_path):
    result = run_sweep(tiny_spec, cache_dir=tmp_path / "c", out_dir=tmp_path / "o")
    summary = result.summary
    assert summary["name"] == "tiny-test"
    assert summary["num_shards"] == 4
    assert summary["spec_hash"] == tiny_spec.spec_hash()
    ids = [shard["id"] for shard in summary["shards"]]
    assert ids == [s.shard_id for s in tiny_spec.expand()]
    # Figure shards carry the topology fingerprint of the compiled core;
    # both seeds use different topologies, so the fingerprints differ.
    figure_shards = [s for s in summary["shards"] if s["id"].startswith("figures/")]
    fingerprints = {s["topology_fingerprint"] for s in figure_shards}
    assert len(fingerprints) == 2
    assert all(isinstance(f, str) and len(f) == 64 for f in fingerprints)
    # Aggregates reduce across seeds per grid point.
    fig3 = summary["aggregates"]["fig3.ma_mean_paths"]["figures/t"]
    assert fig3["count"] == 2
    assert fig3["min"] <= fig3["mean"] <= fig3["max"]
    availability = summary["aggregates"]["availability.PAN"]["scenario/churn/t"]
    assert availability["count"] == 2
    assert 0.0 <= availability["mean"] <= 1.0
    # Timing never leaks into the summary (it would break reproducibility).
    assert "elapsed_s" not in summary["shards"][0]


def test_invalid_jobs_rejected(tiny_spec, tmp_path):
    with pytest.raises(ValueError, match="jobs must be a positive integer"):
        run_sweep(tiny_spec, jobs=0, cache_dir=tmp_path / "c", out_dir=tmp_path / "o")


def test_stale_metric_tables_are_removed(tiny_spec, tmp_path):
    run_sweep(tiny_spec, cache_dir=tmp_path / "c", out_dir=tmp_path / "o")
    tables = tmp_path / "o" / "tables"
    assert (tables / "availability.PAN.csv").is_file()
    # Drop the scenario axis: its metrics must vanish from the out dir.
    figures_only = SweepSpec.from_mapping(tiny_mapping(scenarios=[]))
    run_sweep(figures_only, cache_dir=tmp_path / "c", out_dir=tmp_path / "o")
    assert not (tables / "availability.PAN.csv").exists()
    assert (tables / "fig3.ma_mean_paths.csv").is_file()

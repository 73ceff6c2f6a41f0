"""The ``repro sweep`` CLI subcommand."""

import json

from repro.cli import main


def tiny_spec_file(tmp_path, **overrides):
    data = {
        "name": "cli-tiny",
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
        "seeds": [1],
        "figures": ["fig3"],
    }
    data.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


def test_sweep_list_smoke(capsys):
    assert main(["sweep", "--smoke", "--list"]) == 0
    out = capsys.readouterr().out
    assert "scenario/churn-base/tiny/seed1" in out
    assert "18 shards" in out


def test_sweep_runs_spec_file(tmp_path, capsys):
    spec = tiny_spec_file(tmp_path)
    code = main(
        [
            "sweep",
            "--spec",
            str(spec),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "sweep: cli-tiny" in out
    assert captured.err.splitlines()[0] == "sweep: 1 shards: 0 cached, 1 to compute"
    assert captured.err.splitlines()[1].startswith("sweep: done figures/t/seed1 (")
    assert "computed: 1" in out
    summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
    assert summary["name"] == "cli-tiny"
    assert (tmp_path / "out" / "tables" / "fig3.ma_mean_paths.csv").is_file()


def test_sweep_resume_reports_cached(tmp_path, capsys):
    spec = tiny_spec_file(tmp_path)
    arguments = [
        "sweep",
        "--spec",
        str(spec),
        "--cache-dir",
        str(tmp_path / "cache"),
        "--out",
        str(tmp_path / "out"),
    ]
    assert main(arguments) == 0
    capsys.readouterr()
    assert main(arguments) == 0
    assert "cached: 1" in capsys.readouterr().out


def test_sweep_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    assert main(["sweep", "--spec", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_rejects_unknown_sample_key(tmp_path, capsys):
    spec = tiny_spec_file(tmp_path, sample={"count": 1, "bogus": 2})
    assert main(["sweep", "--spec", str(spec)]) == 2
    assert "unknown SweepSpec.sample field(s) 'bogus'" in capsys.readouterr().err


def test_sweep_rejects_bad_jobs(tmp_path, capsys):
    assert main(["sweep", "--smoke", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_sweep_rejects_a_zero_metering_interval_before_any_shard(tmp_path, capsys):
    # A zero interval would reschedule the meter chain at one instant
    # forever; the spec is refused before a shard runs or is cached.
    spec = tiny_spec_file(
        tmp_path,
        figures=[],
        scenarios=[{"scenario": "marketplace", "metering_interval": 0.0}],
    )
    cache = tmp_path / "cache"
    code = main(["sweep", "--spec", str(spec), "--cache-dir", str(cache)])
    assert code == 2
    captured = capsys.readouterr()
    assert "marketplace.metering_interval must be" in captured.err
    assert "sweep: done" not in captured.err
    assert not cache.exists()

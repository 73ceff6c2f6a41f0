"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.topology import generate_topology, load_as_rel, save_as_rel, save_gml


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_topology_arguments(self):
        args = build_parser().parse_args(
            ["topology", "out.txt", "--tier1", "3", "--seed", "7"]
        )
        assert args.command == "topology"
        assert args.output == "out.txt"
        assert args.tier1 == 3
        assert args.seed == 7

    def test_experiments_full_flag(self):
        args = build_parser().parse_args(["experiments", "--full"])
        assert args.full
        assert args.seed is None

    def test_experiments_seed_flag(self):
        args = build_parser().parse_args(["experiments", "--seed", "5"])
        assert args.seed == 5

    def test_experiments_jobs_flag(self):
        args = build_parser().parse_args(["experiments", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["experiments"]).jobs == 1

    def test_experiments_trials_flag(self):
        args = build_parser().parse_args(["experiments", "--trials", "200"])
        assert args.trials == 200
        assert build_parser().parse_args(["experiments"]).trials is None

    def test_experiments_non_positive_trials_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main(["experiments", "--trials", "0"]) == 2
        assert "--trials must be a positive integer" in capsys.readouterr().err

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scenario == "failure-churn"
        assert args.seed is None
        assert args.duration is None
        assert args.trace_out is None

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            [
                "simulate",
                "--scenario",
                "marketplace",
                "--seed",
                "9",
                "--duration",
                "48",
                "--trace-out",
                "trace.jsonl",
            ]
        )
        assert args.scenario == "marketplace"
        assert args.seed == 9
        assert args.duration == 48.0
        assert args.trace_out == "trace.jsonl"

    def test_simulate_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scenario", "nope"])


class TestTopologyCommand:
    def test_writes_a_loadable_as_rel_file(self, tmp_path, capsys):
        output = tmp_path / "topo.as-rel.txt"
        code = main(
            [
                "topology",
                str(output),
                "--tier1",
                "3",
                "--tier2",
                "6",
                "--tier3",
                "15",
                "--stubs",
                "40",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        graph = load_as_rel(output)
        assert len(graph) == 3 + 6 + 15 + 40
        assert "wrote" in capsys.readouterr().out


class TestSimulateCommand:
    def test_failure_churn_prints_availability_summary(self, capsys):
        code = main(["simulate", "--duration", "6", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario: failure-churn" in out
        assert "mean path availability  BGP:" in out
        assert "mean path availability  PAN:" in out
        assert "PAN >= BGP availability: True" in out

    def test_trace_out_writes_reproducible_jsonl(self, tmp_path, capsys):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for target in (first, second):
            code = main(
                [
                    "simulate",
                    "--scenario",
                    "flash-crowd",
                    "--seed",
                    "4",
                    "--duration",
                    "30",
                    "--trace-out",
                    str(target),
                ]
            )
            assert code == 0
        assert "trace written" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().startswith('{"')

    def test_negative_duration_is_a_clean_error(self, capsys):
        code = main(["simulate", "--duration", "-5"])
        assert code == 2
        assert "--duration must be a non-negative finite" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_is_a_clean_error(self, duration, capsys):
        code = main(["simulate", "--duration", duration])
        assert code == 2
        assert "--duration must be a non-negative finite" in capsys.readouterr().err

    def test_negative_seed_is_a_clean_error(self, capsys):
        assert main(["simulate", "--seed", "-1"]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err
        assert main(["experiments", "--seed", "-1"]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err

    def test_non_positive_jobs_is_a_clean_error(self, capsys):
        assert main(["experiments", "--jobs", "0"]) == 2
        assert "--jobs must be a positive integer" in capsys.readouterr().err

    def test_unwritable_trace_path_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--scenario",
                "flash-crowd",
                "--duration",
                "1",
                "--trace-out",
                str(tmp_path / "missing-dir" / "t.jsonl"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "cannot write trace" in captured.err
        # The historical ordering: the run's summary still prints before
        # the trace-write failure is reported.
        assert "scenario: flash-crowd" in captured.out


class TestDiversityCommand:
    def test_analysis_on_written_topology(self, tmp_path, capsys):
        output = tmp_path / "topo.as-rel.txt"
        main(
            [
                "topology",
                str(output),
                "--tier1",
                "3",
                "--tier2",
                "6",
                "--tier3",
                "15",
                "--stubs",
                "40",
                "--seed",
                "3",
            ]
        )
        capsys.readouterr()
        code = main(
            ["diversity", "--topology", str(output), "--sample-size", "15", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GRC" in out
        assert "additional paths per AS" in out

    def test_gml_and_as_rel_files_print_the_same_rows(self, tmp_path, capsys):
        graph = generate_topology(
            num_tier1=3, num_tier2=6, num_tier3=15, num_stubs=40, seed=3
        ).graph
        save_as_rel(graph, tmp_path / "topo.as-rel.txt")
        save_gml(graph, tmp_path / "topo.gml")
        rows = []
        for name in ("topo.as-rel.txt", "topo.gml"):
            argv = ["diversity", "--topology", str(tmp_path / name), "--sample-size", "15"]
            assert main(argv) == 0
            loaded, *scenario_rows = capsys.readouterr().out.splitlines()
            assert loaded.endswith(f"from {tmp_path / name}")
            rows.append(scenario_rows)
        assert rows[0] == rows[1]
        assert any(row.startswith("MA ") for row in rows[0])

    def test_closed_stdout_pipe_is_exit_1_without_traceback(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = ["diversity", "--tier1", "2", "--tier2", "3", "--tier3", "5", "--stubs", "8"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr


class TestNegotiateCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["negotiate"])
        assert args.distribution == "u1"
        assert args.num_choices == 50
        assert args.trials == 40
        assert args.seed == 7

    def test_text_report(self, capsys):
        assert (
            main(["negotiate", "--num-choices", "10", "--trials", "5", "--seed", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "== negotiate: u1 distribution, W=10, 5 trials (seed 3) ==" in out
        assert "price of dishonesty:" in out

    def test_json_envelope(self, capsys):
        import json as json_module

        assert (
            main(
                [
                    "negotiate",
                    "--num-choices",
                    "10",
                    "--trials",
                    "5",
                    "--seed",
                    "3",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        document = json_module.loads(capsys.readouterr().out)
        assert document["kind"] == "negotiate_result"
        assert document["num_choices"] == 10

    def test_invalid_trials_is_exit_2(self, capsys):
        assert main(["negotiate", "--trials", "0"]) == 2
        assert "--trials must be a positive integer" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.max_batch == 32
        assert args.coalesce_window_ms == 5.0
        assert args.cache_entries == 256
        assert args.request_log is None
        assert args.session_cache_limit is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--coalesce-window-ms",
                "12.5",
                "--max-batch",
                "4",
                "--cache-entries",
                "0",
                "--request-log",
                "req.jsonl",
                "--session-cache-limit",
                "16",
            ]
        )
        assert args.port == 0
        assert args.coalesce_window_ms == 12.5
        assert args.max_batch == 4
        assert args.cache_entries == 0
        assert args.request_log == "req.jsonl"
        assert args.session_cache_limit == 16

    def test_invalid_config_is_a_clean_exit_2(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["serve", "--max-batch", "0", "--port", "0"]) == 2
        assert "--max-batch must be a positive integer" in capsys.readouterr().err
        # inf would never fire the coalescing timer; nan silently disabled it.
        for window in ("inf", "nan"):
            assert cli_main(["serve", "--port", "0", "--coalesce-window-ms", window]) == 2
            assert (
                "--coalesce-window-ms must be a non-negative finite number"
                in capsys.readouterr().err
            )
        assert cli_main(["serve", "--port", "0", "--session-cache-limit", "-1"]) == 2
        assert "--session-cache-limit must be non-negative" in capsys.readouterr().err


def test_importing_the_cli_does_not_load_scipy():
    """scipy is imported only by the two functions that use it.

    Nor does the CLI load the server stack (or asyncio) until ``repro
    serve`` runs: ``import repro.cli`` is every command's setup cost.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    lazy = ("scipy", "asyncio", "repro.serve", "repro.serve.server")
    probe = f"import sys, repro.cli; print([m for m in {lazy!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"

"""Golden-file tests: the redesigned CLI's seeded text output is
byte-identical to the pre-redesign renderings.

The files under ``tests/golden/`` were captured by running the CLI *at
the commit before the API redesign* (PR 4 state) with the exact
invocations below.  Every assertion here is a byte comparison of the
full stdout, so any formatting drift — a stray space, a reordered line,
a float formatted differently — fails loudly.

The two diversity edge-case goldens (32-bit ASNs; no peering links, so
no MAs) were captured before the MA path index became int columns, with
their input topologies stored beside them.  The plain ``marketplace``
summary and trace were captured before the event kernel's ``Event``
objects became heap tuples.

The experiments goldens run the real harness at the default reduced
scale (~40 s each); they are the contract that the structured-section
refactor and the ``--jobs`` merge order preserve the historical report
exactly, so they are worth the time.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    return captured.out


@pytest.fixture()
def golden_cwd(tmp_path, monkeypatch):
    """Run from a temp directory so relative paths match the capture."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestFastGoldens:
    def test_topology_output_is_byte_identical(self, golden_cwd, capsys):
        out = run_cli(
            capsys,
            "topology",
            "topo.as-rel.txt",
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
        )
        assert out == golden("topology_seed3.txt")

    def test_diversity_output_is_byte_identical(self, golden_cwd, capsys):
        run_cli(
            capsys,
            "topology",
            "topo.as-rel.txt",
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
        )
        capsys.readouterr()
        out = run_cli(
            capsys,
            "diversity",
            "--topology",
            "topo.as-rel.txt",
            "--sample-size",
            "15",
            "--seed",
            "1",
        )
        assert out == golden("diversity_sample15_seed1.txt")

    @pytest.mark.parametrize(
        "topology, expected",
        [
            # 32-bit ASNs 4,200,000,001-5: ids above 2**31 must decode exactly.
            ("asn32.as-rel.txt", "diversity_asn32.txt"),
            # Transit links only: 0 MAs, an empty MA path index.
            ("no-peering.as-rel.txt", "diversity_no_peering.txt"),
        ],
    )
    def test_diversity_edge_cases_are_byte_identical(
        self, golden_cwd, capsys, topology, expected
    ):
        shutil.copy(GOLDEN_DIR / topology, golden_cwd / topology)
        out = run_cli(capsys, "diversity", "--topology", topology)
        assert out == golden(expected)

    def test_simulate_flash_crowd_is_byte_identical(self, capsys):
        out = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "flash-crowd",
            "--seed",
            "4",
            "--duration",
            "30",
        )
        assert out == golden("simulate_flash_crowd_seed4.txt")

    def test_simulate_failure_churn_is_byte_identical(self, capsys):
        out = run_cli(capsys, "simulate", "--duration", "6", "--seed", "1")
        assert out == golden("simulate_failure_churn_seed1.txt")

    def test_simulate_marketplace_is_byte_identical(self, capsys):
        out = run_cli(capsys, "simulate", "--scenario", "marketplace", "--seed", "3")
        assert out == golden("simulate_marketplace_seed3.txt")

    def test_simulate_marketplace_trace_is_byte_identical(self, tmp_path, capsys):
        # The trace pins same-instant order: each term's last meter tick
        # (priority 0) is sampled before its expiry (priority 5) bills it.
        trace_path = tmp_path / "trace.jsonl"
        run_cli(
            capsys,
            "simulate",
            "--scenario",
            "marketplace",
            "--seed",
            "3",
            "--trace-out",
            str(trace_path),
        )
        assert trace_path.read_bytes() == (
            GOLDEN_DIR / "trace_marketplace_seed3.jsonl"
        ).read_bytes()

    def test_simulate_heterogeneous_summary_is_byte_identical(self, capsys):
        out = run_cli(capsys, "simulate", "--scenario", "marketplace-heterogeneous")
        assert out == golden("simulate_marketplace_heterogeneous_seed2021.txt")

    def test_simulate_heterogeneous_trace_is_byte_identical(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        run_cli(
            capsys,
            "simulate",
            "--scenario",
            "marketplace-heterogeneous",
            "--trace-out",
            str(trace_path),
        )
        assert trace_path.read_bytes() == (
            GOLDEN_DIR / "trace_marketplace_heterogeneous_seed2021.jsonl"
        ).read_bytes()


class TestExperimentsGoldens:
    """The heavyweight contract: the full seeded harness, both schedules."""

    ARGS = ("experiments", "--seed", "7", "--trials", "3")

    def test_sequential_run_is_byte_identical(self, capsys):
        out = run_cli(capsys, *self.ARGS)
        assert out == golden("experiments_seed7_trials3.txt")

    def test_jobs_2_run_is_byte_identical(self, capsys):
        out = run_cli(capsys, *self.ARGS, "--jobs", "2")
        assert out == golden("experiments_seed7_trials3.txt")

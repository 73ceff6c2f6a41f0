"""The ``python -m repro.api.validate`` envelope checker."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    WORKFLOWS,
    DiversityResult,
    DiversityScenarioRow,
    ExperimentsResult,
    GrcAllResult,
    NegotiateResult,
    PopulationResult,
    SectionResult,
    SimulateResult,
    SweepResult,
    TopologyResult,
)
from repro.api.validate import main, validate_envelope
from repro.envelope import SCHEMA_VERSION


def good_envelope() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulate_result",
        "name": "failure-churn",
        "seed": 1,
        "duration": 6.0,
        "events_processed": 10,
        "num_trace_records": 4,
        "kinds": {"availability_sample": 4},
        "headline": ["ok"],
        "trace_out": None,
    }


class TestValidateEnvelope:
    def test_valid_envelope_has_no_problems(self):
        assert validate_envelope(good_envelope()) == []

    def test_non_object_is_rejected(self):
        assert validate_envelope([1, 2]) != []

    def test_missing_schema_version_is_rejected(self):
        data = good_envelope()
        del data["schema_version"]
        assert any("schema_version" in p for p in validate_envelope(data))

    def test_wrong_schema_version_is_rejected(self):
        data = good_envelope()
        data["schema_version"] = 99
        assert any("unsupported schema_version" in p for p in validate_envelope(data))

    def test_unknown_kind_is_rejected(self):
        data = good_envelope()
        data["kind"] = "mystery"
        assert any("unknown kind" in p for p in validate_envelope(data))

    def test_missing_required_key_is_rejected(self):
        data = good_envelope()
        del data["events_processed"]
        assert any("missing required key" in p for p in validate_envelope(data))

    def test_non_finite_numbers_are_rejected_with_their_path(self):
        data = good_envelope()
        data["kinds"] = {"availability_sample": float("nan")}
        problems = validate_envelope(data)
        assert any("$.kinds.availability_sample" in p for p in problems)

    def test_nested_sections_are_checked(self):
        data = RESULTS["experiments"].to_json_dict()
        data["sections"] = [{"schema_version": 99, "kind": "section_result"}]
        problems = validate_envelope(data)
        assert any(p.startswith("experiments_result.sections[]:") for p in problems)

    def test_a_mistyped_field_and_an_unknown_key_are_problems(self):
        data = dict(RESULTS["negotiate"].to_json_dict(), trials="three")
        assert validate_envelope(data) == [
            "negotiate_result.trials must be an integer, got string"
        ]
        data = dict(RESULTS["negotiate"].to_json_dict(), bogus=1)
        (problem,) = validate_envelope(data)
        assert problem.startswith("unknown negotiate_result field(s) 'bogus'; available: ")


#: One valid result of every workflow, built directly (no workflow runs).
RESULTS = {
    "topology": TopologyResult(
        tier1=2, tier2=3, tier3=4, stubs=5, seed=7, num_ases=14,
        num_transit_links=13, num_peering_links=2, graph_description="g",
    ),
    "diversity": DiversityResult(
        source="generated", topology_path=None, graph_description="g",
        num_agreements=3, sample_size=2, seed=1,
        rows=(DiversityScenarioRow("all", 4.0, 3.0),),
        additional_paths_mean=1.5, additional_paths_max=2.0,
    ),
    "experiments": ExperimentsResult(
        full=False, seed=7, trials=3, jobs=1,
        sections=(SectionResult(key="fig2", title="Fig. 2"),),
    ),
    "grc-all": GrcAllResult(
        source="generated", topology_path=None, fingerprint="f", jobs=1,
        shards=1, num_ases=3, total_paths=4, mean_paths=1.5, max_paths=2,
        mean_destinations=1.0, max_destinations=2,
    ),
    "simulate": SimulateResult(
        name="s", seed=1, duration=6.0, events_processed=3, num_trace_records=2,
        kinds={"availability_sample": 2}, headline=("ok",),
        population=PopulationResult(name="s", profiles=({"profile": "honest"},)),
    ),
    "negotiate": NegotiateResult(
        distribution="u1", num_choices=20, trials=3, seed=0, converged_trials=3,
        skipped_trials=0, min_pod=1.0, mean_pod=1.1, max_pod=1.2,
        mean_equilibrium_choices=2.0, best_expected_nash_product=0.5,
        truthful_nash_product=0.4,
    ),
    "sweep": SweepResult(
        name="s", executed=("a",), reused=(), summary_path="p", num_tables=1,
        summary={"shards": 1},
    ),
}


def test_every_workflow_has_an_example_result():
    assert {name: type(r) for name, r in RESULTS.items()} == {
        name: w.result_type for name, w in WORKFLOWS.items()
    }


@pytest.mark.parametrize("workflow", sorted(RESULTS))
class TestWorkflowResultKinds:
    """Each field of each workflow result is type-checked by the validator."""

    def test_every_mistyped_field_is_named(self, workflow):
        document = RESULTS[workflow].to_json_dict()
        kind = document["kind"]
        assert validate_envelope(document) == []
        for field, value in document.items():
            if field in ("schema_version", "kind"):
                continue
            wrong = 3 if value is None or isinstance(value, str) else "three"
            problems = validate_envelope(dict(document, **{field: wrong}))
            assert len(problems) == 1, (field, problems)
            assert problems[0].startswith(f"{kind}.{field} must be "), problems

    def test_an_unknown_key_is_named(self, workflow):
        document = RESULTS[workflow].to_json_dict()
        kind = document["kind"]
        (problem,) = validate_envelope(dict(document, bogus=1))
        assert problem.startswith(f"unknown {kind} field(s) 'bogus'; available: ")


class TestValidateCli:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "env.json"
        target.write_text(json.dumps(good_envelope()))
        assert main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "simulate_result" in out

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        target = tmp_path / "env.json"
        broken = good_envelope()
        del broken["kind"]
        target.write_text(json.dumps(broken))
        assert main([str(target)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unreadable_and_non_json_files_fail(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{nope")
        assert main([str(missing), str(garbage)]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 2

    def test_real_cli_json_output_validates(self, tmp_path, capsys, monkeypatch):
        """The envelope the CLI emits is exactly what the checker accepts."""
        from repro.cli import main as cli_main

        monkeypatch.chdir(tmp_path)
        assert (
            cli_main(
                [
                    "simulate",
                    "--scenario",
                    "flash-crowd",
                    "--seed",
                    "4",
                    "--duration",
                    "30",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = capsys.readouterr().out
        target = tmp_path / "simulate.json"
        target.write_text(payload)
        assert main([str(target)]) == 0


class TestJobKinds:
    """The async job layer's envelopes are first-class validated kinds."""

    def test_job_request_and_status_kinds_are_registered(self):
        from repro.api import JobRequest, JobStatusResult
        from repro.envelope import KINDS

        assert KINDS["job_request"] is JobRequest
        assert KINDS["job_status_result"] is JobStatusResult
        bare = {"schema_version": SCHEMA_VERSION}
        assert validate_envelope(dict(bare, kind="job_request")) == [
            "job_request is missing required key(s): 'workflow', 'request'"
        ]
        assert validate_envelope(dict(bare, kind="job_status_result")) == [
            "job_status_result is missing required key(s): "
            "'job_id', 'workflow', 'state', 'progress'"
        ]

    def test_live_job_envelopes_validate(self):
        from repro.api import JobRequest

        job = JobRequest(workflow="negotiate", request={"trials": 5})
        assert validate_envelope(job.to_json_dict()) == []

    def test_job_status_missing_state_is_rejected(self):
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": "job_status_result",
            "job_id": "j",
            "workflow": "negotiate",
            "progress": {},
        }
        problems = validate_envelope(document)
        assert any("state" in p for p in problems)


def test_importing_the_validator_alone_registers_every_kind():
    """``repro.api.validate`` knows every kind from its own imports.

    Kinds register as their codec classes are defined, so a module the
    validator stops importing would make it reject that kind's valid
    envelopes as unknown.  A fresh process imports nothing else.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = "import repro.api.validate; from repro.envelope import KINDS; print(sorted(KINDS))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == repr(
        [
            "agents_list_result",
            "diversity_request",
            "diversity_result",
            "error_result",
            "experiments_request",
            "experiments_result",
            "grc_all_request",
            "grc_all_result",
            "job_request",
            "job_status_result",
            "negotiate_request",
            "negotiate_result",
            "population_result",
            "scenario_list_result",
            "scenario_result",
            "section_result",
            "serve_health",
            "serve_log_record",
            "serve_stats",
            "simulate_request",
            "simulate_result",
            "sweep_list_result",
            "sweep_request",
            "sweep_result",
            "topology_request",
            "topology_result",
        ]
    )

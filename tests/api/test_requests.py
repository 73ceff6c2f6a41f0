"""Typed-request validation: API callers get the same errors as CLI users."""

import asyncio
import json

import pytest

from repro.api import (
    WORKFLOWS,
    DiversityRequest,
    ExperimentsRequest,
    GrcAllRequest,
    Session,
    SimulateRequest,
    SweepRequest,
    TopologyRequest,
    ValidationError,
)
from repro.cli import main
from repro.serve.http import HttpRequest
from repro.serve.service import ServeService


class TestSeedValidation:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TopologyRequest(seed=-1),
            lambda: DiversityRequest(seed=-1),
            lambda: ExperimentsRequest(seed=-1),
            lambda: SimulateRequest(seed=-1),
        ],
    )
    def test_negative_seed_is_rejected_everywhere(self, factory):
        with pytest.raises(ValidationError, match="--seed must be non-negative"):
            factory()

    def test_none_seed_is_accepted_where_optional(self):
        assert ExperimentsRequest(seed=None).seed is None
        assert SimulateRequest(seed=None).seed is None

    def test_zero_seed_is_accepted(self):
        assert ExperimentsRequest(seed=0).seed == 0


class TestExperimentsValidation:
    @pytest.mark.parametrize("jobs", [0, -1, -100])
    def test_non_positive_jobs_is_rejected(self, jobs):
        with pytest.raises(ValidationError, match="--jobs must be a positive integer"):
            ExperimentsRequest(jobs=jobs)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_non_positive_trials_is_rejected(self, trials):
        with pytest.raises(
            ValidationError, match="--trials must be a positive integer"
        ):
            ExperimentsRequest(trials=trials)

    def test_trials_none_means_scale_default(self):
        assert ExperimentsRequest().trials is None

    def test_error_message_matches_the_cli_wording(self):
        with pytest.raises(ValidationError) as excinfo:
            ExperimentsRequest(jobs=0)
        assert str(excinfo.value) == "--jobs must be a positive integer, got 0"


class TestExperimentsTakesNoArtifactStore:
    """``artifact_dir`` belongs to grc-all alone; experiments rejects it."""

    def test_request_job_server_and_cli_reject_artifact_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.api import JobRequest, build_workflow_request

        payload = {"artifact_dir": "store"}
        with pytest.raises(ValidationError, match="artifact_dir"):
            build_workflow_request("experiments", payload)
        with pytest.raises(ValidationError, match="artifact_dir"):
            JobRequest(workflow="experiments", request=payload)

        service = ServeService(
            Session(), cache_entries=8, state_dir=tmp_path / "state"
        )
        for path, document in (
            ("/v1/experiments", payload),
            ("/v1/jobs", {"workflow": "experiments", "request": payload}),
        ):
            request = HttpRequest(
                method="POST", path=path, query="", body=json.dumps(document).encode()
            )
            status, body, _ = asyncio.run(service.handle(request))
            assert status == 400, path
            assert "artifact_dir" in json.loads(body)["error"], path

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["experiments", "--artifact-dir", "store"])
        assert exit_info.value.code == 2
        assert "--artifact-dir" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()


class TestSimulateValidation:
    @pytest.mark.parametrize("duration", [-5.0, float("nan"), float("inf")])
    def test_bad_duration_is_rejected(self, duration):
        with pytest.raises(
            ValidationError, match="--duration must be a non-negative finite"
        ):
            SimulateRequest(duration=duration)

    def test_duration_is_checked_before_seed(self):
        """The CLI historically reported the duration problem first."""
        with pytest.raises(ValidationError, match="--duration"):
            SimulateRequest(duration=-1.0, seed=-1)

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            SimulateRequest(scenario="nope")

    def test_zero_duration_is_accepted(self):
        assert SimulateRequest(duration=0.0).duration == 0.0


class TestTopologyAndDiversityValidation:
    @pytest.mark.parametrize("field", ["tier1", "tier2", "tier3", "stubs"])
    def test_negative_tier_counts_are_rejected(self, field):
        expected = "a positive integer" if field == "tier1" else "non-negative"
        with pytest.raises(ValidationError, match=f"--{field} must be {expected}"):
            TopologyRequest(**{field: -1})

    @pytest.mark.parametrize("sample_size", [0, -3])
    def test_non_positive_sample_size_is_rejected(self, sample_size):
        with pytest.raises(
            ValidationError, match="--sample-size must be a positive integer"
        ):
            DiversityRequest(sample_size=sample_size)


class TestTierOneIsRequired:
    """A generated topology needs a tier-1 AS: 0 fails as bad input, never a 500."""

    @pytest.mark.parametrize(
        ("request_type", "argv"),
        [
            (TopologyRequest, ["topology", "t.txt", "--tier1", "0"]),
            (DiversityRequest, None),  # the CLI exposes no tier flags
            (GrcAllRequest, ["grc-all", "--tier1", "0"]),
        ],
    )
    def test_zero_tier1_is_rejected_by_request_server_and_cli(
        self, request_type, argv, tmp_path, monkeypatch, capsys
    ):
        message = "--tier1 must be a positive integer, got 0"
        tiers = {"tier1": 0, "tier2": 0, "tier3": 0, "stubs": 0}
        with pytest.raises(ValidationError) as excinfo:
            request_type(**tiers)
        assert str(excinfo.value) == message

        (workflow,) = [w for w in WORKFLOWS.values() if w.request_type is request_type]
        if workflow.routable:
            service = ServeService(Session(), cache_entries=8)
            request = HttpRequest(
                method="POST",
                path=f"/v1/{workflow.name}",
                query="",
                body=json.dumps(tiers).encode(),
            )
            status, body, _ = asyncio.run(service.handle(request))
            assert status == 400
            assert json.loads(body)["error"] == message

        if argv is not None:
            monkeypatch.chdir(tmp_path)
            assert main(argv) == 2
            assert message in capsys.readouterr().err


class TestSweepValidation:
    def test_non_positive_jobs_is_rejected(self):
        with pytest.raises(ValidationError, match="--jobs must be a positive integer"):
            SweepRequest(smoke=True, jobs=0)

    def test_spec_and_smoke_are_mutually_exclusive(self):
        with pytest.raises(ValidationError, match="exactly one of"):
            SweepRequest(spec="spec.json", smoke=True)

    def test_neither_spec_nor_smoke_is_rejected(self):
        with pytest.raises(ValidationError, match="exactly one of"):
            SweepRequest()

    def test_smoke_request_is_valid(self):
        assert SweepRequest(smoke=True).jobs == 1


class TestValidationErrorTaxonomy:
    def test_validation_error_maps_to_exit_code_2(self):
        from repro.api import ReproError, exit_code_for

        error = ValidationError("bad")
        assert isinstance(error, ReproError)
        assert isinstance(error, ValueError)
        assert error.exit_code == 2
        assert exit_code_for(error) == 2

    def test_unknown_errors_map_to_exit_code_1(self):
        from repro.api import exit_code_for

        assert exit_code_for(RuntimeError("boom")) == 1


class TestNegotiateValidation:
    def test_defaults_are_valid(self):
        from repro.api import NegotiateRequest

        request = NegotiateRequest()
        assert request.distribution == "u1"
        assert request.coalesce_key() == ("u1", 50)

    def test_unknown_distribution_rejected(self):
        from repro.api import NegotiateRequest, ValidationError

        with pytest.raises(ValidationError, match="unknown distribution"):
            NegotiateRequest(distribution="gaussian")

    @pytest.mark.parametrize("field", ["num_choices", "trials"])
    def test_non_positive_counts_rejected(self, field):
        from repro.api import NegotiateRequest, ValidationError

        with pytest.raises(ValidationError, match="must be a positive integer"):
            NegotiateRequest(**{field: 0})

    def test_negative_seed_rejected(self):
        from repro.api import NegotiateRequest, ValidationError

        with pytest.raises(ValidationError, match="--seed must be non-negative"):
            NegotiateRequest(seed=-1)

    def test_coalesce_key_ignores_trials_and_seed(self):
        from repro.api import NegotiateRequest

        a = NegotiateRequest(num_choices=30, trials=10, seed=1)
        b = NegotiateRequest(num_choices=30, trials=99, seed=2)
        assert a.coalesce_key() == b.coalesce_key()


class TestJobRequests:
    """The async job layer's request envelope and workflow registry."""

    def test_every_registered_workflow_builds_its_request_type(self):
        from repro.api import WORKFLOWS, build_workflow_request

        # Sweep insists on exactly one of spec/smoke; the rest accept
        # their defaults.
        minimal = {"sweep": {"smoke": True}}
        for name, workflow in WORKFLOWS.items():
            built = build_workflow_request(name, minimal.get(name, {}))
            assert isinstance(built, workflow.request_type)

    def test_unknown_workflow_names_the_available_ones(self):
        from repro.api import ValidationError, build_workflow_request

        with pytest.raises(ValidationError, match="negotiate"):
            build_workflow_request("bogus", {})

    def test_envelope_and_bare_payload_build_identically(self):
        from repro.api import NegotiateRequest, build_workflow_request

        payload = {"num_choices": 10, "trials": 5, "seed": 3}
        bare = build_workflow_request("negotiate", payload)
        enveloped = build_workflow_request(
            "negotiate", NegotiateRequest(**payload).to_json_dict()
        )
        assert bare == enveloped

    def test_bare_payload_rejects_unknown_fields(self):
        from repro.api import ValidationError, build_workflow_request

        with pytest.raises(ValidationError, match="unknown"):
            build_workflow_request("negotiate", {"bogus": 1})

    def test_job_request_validates_its_inner_request_eagerly(self):
        from repro.api import JobRequest, ValidationError

        with pytest.raises(ValidationError, match="--num-choices"):
            JobRequest(workflow="negotiate", request={"num_choices": -1})

    def test_job_request_round_trips_through_its_envelope(self):
        from repro.api import JobRequest

        job = JobRequest(workflow="negotiate", request={"trials": 5})
        restored = JobRequest.from_json_dict(job.to_json_dict())
        assert restored == job
        assert restored.typed_request() == job.typed_request()


class TestJobStatusResult:
    def test_terminal_states(self):
        from repro.api import JobStatusResult
        from repro.api.results import JOB_STATES

        for state in JOB_STATES:
            status = JobStatusResult(
                job_id="j", workflow="negotiate", state=state, progress={}
            )
            assert status.is_terminal == (state in ("done", "failed", "cancelled"))

    def test_unknown_state_is_rejected(self):
        from repro.api import JobStatusResult
        from repro.errors import EnvelopeError

        with pytest.raises(EnvelopeError, match="unknown job state"):
            JobStatusResult(job_id="j", workflow="negotiate", state="paused", progress={})

    def test_round_trips_through_its_envelope(self):
        from repro.api import JobStatusResult

        status = JobStatusResult(
            job_id="j-1",
            workflow="sweep",
            state="running",
            progress={"completed": 2, "total": 9},
        )
        restored = JobStatusResult.from_json_dict(status.to_json_dict())
        assert restored == status

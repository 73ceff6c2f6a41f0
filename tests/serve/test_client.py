"""The typed ``ServeClient``: Session's surface over the wire.

One server process serves the whole module (the client tests pin
client-side behavior, not server lifecycles), and every typed method is
checked against the same workflow run through a local
:class:`~repro.api.Session` — the client's promise is that the two are
indistinguishable, results and raised exceptions alike.
"""

from __future__ import annotations

import pytest

from repro.api import (
    DiversityRequest,
    NegotiateRequest,
    Session,
    SimulateRequest,
    TopologyRequest,
)
from repro.api.results import JobStatusResult
from repro.errors import ReproError, ServiceError, ValidationError
from repro.serve.client import ServeClient, ServeResponse


@pytest.fixture()
def client(module_server):
    with ServeClient("127.0.0.1", module_server.port) as c:
        yield c


class TestTypedRoutes:
    def test_negotiate_returns_the_sessions_typed_result(self, client):
        request = NegotiateRequest(num_choices=10, trials=5, seed=3)
        assert client.negotiate(request) == Session().negotiate(request)

    def test_default_request_mirrors_session_defaults(self, client, tmp_path):
        request = SimulateRequest(duration=100, seed=7)
        served = client.simulate(request)
        assert served == Session().simulate(request)

    def test_topology_then_diversity_roundtrip(self, client, tmp_path):
        path = tmp_path / "client.as-rel.txt"
        topo = client.topology(
            TopologyRequest(
                tier1=2, tier2=3, tier3=4, stubs=8, seed=1, output=str(path)
            )
        )
        assert path.exists()
        request = DiversityRequest(topology=str(path), sample_size=4, seed=1)
        served = client.diversity(request)
        assert served.sample_size == 4
        assert served == Session().diversity(request)
        assert topo.num_ases > 0

    def test_health_and_stats_are_decoded_envelopes(self, client):
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert stats["kind"] == "serve_stats"
        assert str(client.last_worker_pid) in stats["workers"]

    def test_every_response_reports_its_worker(self, client):
        response = client.raw_get("/v1/health")
        assert response.worker_pid is not None
        assert client.last_worker_pid == response.worker_pid


class TestTypedErrors:
    def test_validation_error_raises_like_a_local_session(self, client, tmp_path):
        # Typed requests validate eagerly, so the server-side failure a
        # client can actually see is one the session discovers at run
        # time — here, a topology file that does not exist.
        request = DiversityRequest(
            topology=str(tmp_path / "absent.as-rel.txt"), sample_size=4
        )
        with pytest.raises(ValidationError) as served:
            client.diversity(request)
        with pytest.raises(ValidationError) as local:
            Session().diversity(request)
        assert str(served.value) == str(local.value)

    def test_wire_level_validation_error_is_typed_too(self, client):
        response = client.raw_post("/v1/negotiate", {"num_choices": -1})
        assert response.status == 400
        with pytest.raises(ValidationError, match="--num-choices"):
            client._decoded(response)

    def test_non_envelope_body_is_a_service_error(self):
        client = ServeClient("127.0.0.1", 1)
        response = ServeResponse(200, b"[]")
        with pytest.raises(ServiceError, match="non-envelope"):
            client._decoded(response)
        with pytest.raises(ServiceError, match="non-JSON"):
            client._decoded(ServeResponse(200, b"not json"))

    def test_unexpected_status_is_a_service_error(self):
        client = ServeClient("127.0.0.1", 1)
        with pytest.raises(ServiceError, match="unexpected status 204"):
            client._decoded(ServeResponse(204, b"{}"))

    def test_error_envelope_decoding_handles_garbage(self):
        client = ServeClient("127.0.0.1", 1)
        garbage = (
            b'{"schema_version": 1, "kind": "error_result", "error": 1,'
            b' "exit_code": 1, "http_status": 500}'
        )
        # A malformed error_result is still a typed error, naming its field.
        with pytest.raises(ReproError, match="error_result.error must be a string"):
            client._decoded(ServeResponse(500, garbage))


class TestJobsNamespace:
    PAYLOAD = {"num_choices": 10, "trials": 5, "seed": 3}

    def test_submit_poll_wait_roundtrip(self, client):
        submitted = client.jobs.submit("negotiate", self.PAYLOAD)
        assert isinstance(submitted, JobStatusResult)
        assert submitted.state == "queued"
        observed = client.jobs.poll(submitted.job_id)
        assert observed.job_id == submitted.job_id
        final = client.jobs.wait(submitted.job_id, timeout=60.0)
        assert final.state == "done"
        expected = Session().negotiate(NegotiateRequest(**self.PAYLOAD))
        assert final.result == expected.to_json_dict()

    def test_submit_accepts_a_typed_request(self, client):
        submitted = client.jobs.submit(
            "negotiate", NegotiateRequest(**self.PAYLOAD)
        )
        final = client.jobs.wait(submitted.job_id, timeout=60.0)
        assert final.state == "done"

    def test_failed_job_raises_the_mapped_error(self, client, tmp_path):
        submitted = client.jobs.submit(
            "simulate",
            {
                "duration": 1,
                "trace_out": str(tmp_path / "no-such-dir" / "t.jsonl"),
            },
        )
        # OutputError's (1, 500) pair maps client-side to ServiceError.
        with pytest.raises(ServiceError, match="trace"):
            client.jobs.wait(submitted.job_id, timeout=60.0)
        final = client.jobs.wait(
            submitted.job_id, timeout=60.0, raise_on_failure=False
        )
        assert final.state == "failed"

    def test_invalid_submission_raises_at_submit_time(self, client):
        with pytest.raises(ValidationError, match="--num-choices"):
            client.jobs.submit("negotiate", {"num_choices": -1})
        with pytest.raises(ValidationError, match="unknown workflow"):
            client.jobs.submit("bogus", {})

    def test_cancel_a_queued_job(self, client):
        # Occupy the single runner with a slow job, then submit + cancel
        # a second one while it is still queued behind the first.
        blocker = client.jobs.submit(
            "negotiate", {"num_choices": 64, "trials": 400, "seed": 1}
        )
        victim = client.jobs.submit("negotiate", self.PAYLOAD)
        cancelled = client.jobs.cancel(victim.job_id)
        assert cancelled.state == "cancelled"
        final = client.jobs.wait(victim.job_id, timeout=30.0)
        assert final.state == "cancelled"
        assert client.jobs.wait(blocker.job_id, timeout=60.0).state == "done"

    def test_wait_times_out(self, client):
        blocker = client.jobs.submit(
            "negotiate", {"num_choices": 64, "trials": 400, "seed": 2}
        )
        with pytest.raises(TimeoutError, match=blocker.job_id):
            client.jobs.wait(blocker.job_id, timeout=0.0)
        assert client.jobs.wait(blocker.job_id, timeout=60.0).state == "done"

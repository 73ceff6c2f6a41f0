"""The async job layer: crash-safe records, claims, runner execution."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ErrorResult, JobRequest, Session
from repro.api.validate import validate_envelope
from repro.serve.http import HttpRequest
from repro.serve.jobs import JobStore
from repro.serve.service import ServeService


def negotiate_job(**overrides) -> JobRequest:
    payload = {"num_choices": 10, "trials": 5, "seed": 3, **overrides}
    return JobRequest(workflow="negotiate", request=payload)


class TestJobStore:
    def test_submit_then_status_is_queued(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(negotiate_job())
        status = store.status(job_id)
        assert status.state == "queued"
        assert status.workflow == "negotiate"
        assert not status.is_terminal
        assert validate_envelope(status.to_json_dict()) == []

    def test_unknown_job_is_none(self, tmp_path):
        assert JobStore(tmp_path).status("no-such-job") is None

    def test_only_the_submitted_id_shape_names_a_job(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(negotiate_job())
        (tmp_path / "stray").mkdir()
        # An uppercase hex suffix; ``job_id.upper()`` equals ``job_id``
        # whenever the random suffix happens to be all digits.
        upper = f"{job_id[:-6]}ABCDEF"
        for other in ("stray", f"{job_id}x", f"x{job_id}", upper, "."):
            assert store.status(other) is None
            assert store.cancel(other) is None
        assert store.status(job_id).state == "queued"

    def test_claim_marks_running_and_is_exclusive(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(negotiate_job())
        claimed = store.claim_next()
        assert claimed is not None and claimed[0] == job_id
        assert store.status(job_id).state == "running"
        # The O_EXCL claim file arbitrates: nobody else can claim it.
        assert store.claim_next() is None

    def test_claims_oldest_first(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.submit(negotiate_job(seed=1))
        store.submit(negotiate_job(seed=2))
        assert store.claim_next()[0] == first

    def test_finish_publishes_the_result_envelope(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(negotiate_job())
        store.claim_next()
        result = {"schema_version": 1, "kind": "negotiate_result", "mean_pod": 1.0}
        store.finish(job_id, result)
        status = store.status(job_id)
        assert status.state == "done" and status.is_terminal
        assert status.result == result

    def test_fail_records_a_typed_error_envelope(self, tmp_path):
        from repro.errors import OutputError

        store = JobStore(tmp_path)
        job_id = store.submit(negotiate_job())
        store.claim_next()
        store.fail(job_id, OutputError("unwritable"))
        status = store.status(job_id)
        assert status.state == "failed"
        assert status.error == ErrorResult("unwritable", exit_code=1, http_status=500)
        assert validate_envelope(status.error.to_json_dict()) == []

    def test_cancel_only_affects_queued_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        queued = store.submit(negotiate_job(seed=1))
        running = store.submit(negotiate_job(seed=2))
        store.claim_next()  # claims `queued` (oldest) — re-order:
        # the claim took the first submission, so cancel the second
        # while it is still queued and observe the first unaffected.
        assert store.cancel(running).state == "cancelled"
        assert store.cancel(queued).state == "running"
        assert store.cancel("missing") is None
        # A cancelled job is never claimed.
        assert store.claim_next() is None

    def test_requeue_orphans_releases_dead_claims(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(negotiate_job())
        store.claim_next(pid=999_999_999)  # a pid that cannot be alive
        assert store.status(job_id).state == "queued"  # dead claim ≠ running
        assert store.claim_next() is None  # ...but the claim file blocks
        assert store.requeue_orphans() == [job_id]
        claimed = store.claim_next()
        assert claimed is not None and claimed[0] == job_id

    def test_requeue_respects_the_supervisors_alive_set(self, tmp_path):
        import os

        store = JobStore(tmp_path)
        store.submit(negotiate_job())
        store.claim_next()  # claimed by *this* live process
        assert store.requeue_orphans(alive={os.getpid()}) == []
        assert store.requeue_orphans(alive=set()) != []

    def test_truncated_event_line_is_tolerated(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(negotiate_job())
        events = tmp_path / job_id / "events.jsonl"
        with open(events, "a", encoding="utf-8") as f:
            f.write('{"event": "progr')  # crash mid-append
        status = store.status(job_id)
        assert status.state == "queued"

    def test_counts_by_state(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(negotiate_job(seed=1))
        done = store.submit(negotiate_job(seed=2))
        store.cancel(done)
        counts = store.counts()
        assert counts["queued"] == 1 and counts["cancelled"] == 1


class TestJobRoutesAndRunner:
    """The HTTP surface plus the claim-and-execute loop, end to end."""

    @staticmethod
    def _handle(service, method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        request = HttpRequest(method=method, path=path, query="", body=body)
        return service.handle(request)

    def _run_to_terminal(self, service, submit_payload):
        async def scenario():
            status, body, _ = await self._handle(
                service, "POST", "/v1/jobs", submit_payload
            )
            assert status == 202
            submitted = json.loads(body)
            assert validate_envelope(submitted) == []
            assert submitted["state"] == "queued"
            job_id = submitted["job_id"]
            service.job_runner.start()
            final = None
            for _ in range(400):
                poll_status, poll_body, _ = await self._handle(
                    service, "GET", f"/v1/jobs/{job_id}"
                )
                assert poll_status == 200
                final = json.loads(poll_body)
                assert validate_envelope(final) == []
                if final["state"] in ("done", "failed", "cancelled"):
                    break
                await asyncio.sleep(0.02)
            await service.job_runner.aclose()
            return final

        return asyncio.run(scenario())

    @pytest.fixture()
    def service(self, tmp_path):
        return ServeService(
            Session(),
            cache_entries=8,
            state_dir=tmp_path / "state",
        )

    def test_submitted_job_runs_to_done_with_the_session_result(self, service):
        payload = {
            "workflow": "negotiate",
            "request": {"num_choices": 10, "trials": 5, "seed": 3},
        }
        final = self._run_to_terminal(service, payload)
        assert final["state"] == "done"
        from repro.api import NegotiateRequest

        expected = service.session.negotiate(
            NegotiateRequest(num_choices=10, trials=5, seed=3)
        ).to_json_dict()
        assert final["result"] == expected

    def test_failing_job_becomes_a_failed_record(self, service, tmp_path):
        payload = {
            "workflow": "simulate",
            "request": {
                "duration": 1,
                "trace_out": str(tmp_path / "missing-dir" / "x" / "t.jsonl"),
            },
        }
        final = self._run_to_terminal(service, payload)
        assert final["state"] == "failed"
        assert final["error"]["http_status"] == 500

    def test_sweep_job_reports_progress(self, service):
        payload = {"workflow": "sweep", "request": {"smoke": True, "jobs": 1}}

        async def scenario():
            import tempfile

            with tempfile.TemporaryDirectory() as out:
                payload["request"]["out"] = out
                payload["request"]["cache_dir"] = out + "/cache"
                status, body, _ = await self._handle(
                    service, "POST", "/v1/jobs", payload
                )
                assert status == 202
                job_id = json.loads(body)["job_id"]
                service.job_runner.start()
                final = None
                for _ in range(2400):
                    final = service.jobs.status(job_id)
                    if final.is_terminal:
                        break
                    await asyncio.sleep(0.05)
                await service.job_runner.aclose()
                return final

        final = asyncio.run(scenario())
        assert final.state == "done"
        assert final.progress["total"] >= 1
        assert final.progress["completed"] == final.progress["total"]

    def test_invalid_submission_is_rejected_at_post_time(self, service):
        async def scenario():
            return await self._handle(
                service,
                "POST",
                "/v1/jobs",
                {"workflow": "negotiate", "request": {"num_choices": -1}},
            )

        status, body, _ = asyncio.run(scenario())
        assert status == 400
        assert "--num-choices" in json.loads(body)["error"]
        assert service.jobs.counts()["queued"] == 0

    def test_unknown_workflow_is_rejected(self, service):
        async def scenario():
            return await self._handle(
                service, "POST", "/v1/jobs", {"workflow": "bogus", "request": {}}
            )

        status, body, _ = asyncio.run(scenario())
        assert status == 400
        assert "unknown workflow" in json.loads(body)["error"]

    def test_poll_unknown_job_is_404(self, service):
        async def scenario():
            return await self._handle(service, "GET", "/v1/jobs/nope")

        status, body, _ = asyncio.run(scenario())
        assert status == 404
        assert json.loads(body)["http_status"] == 404

    def test_delete_cancels_a_queued_job(self, service):
        async def scenario():
            _, body, _ = await self._handle(
                service,
                "POST",
                "/v1/jobs",
                {"workflow": "negotiate", "request": {"trials": 5}},
            )
            job_id = json.loads(body)["job_id"]
            # The runner was never started, so the job is still queued.
            status, cancel_body, _ = await self._handle(
                service, "DELETE", f"/v1/jobs/{job_id}"
            )
            return status, json.loads(cancel_body)

        status, document = asyncio.run(scenario())
        assert status == 200
        assert document["state"] == "cancelled"
        assert validate_envelope(document) == []

    def test_submit_reply_is_queued_even_if_claimed_before_it_is_built(self, service):
        """A worker may claim the job between the submit and the reply;
        the 202 still describes the submission, and a poll sees the claim."""
        service.job_runner.wake = service.jobs.claim_next

        async def scenario():
            _, body, _ = await self._handle(
                service, "POST", "/v1/jobs", {"workflow": "negotiate", "request": {}}
            )
            submitted = json.loads(body)
            _, poll_body, _ = await self._handle(
                service, "GET", f"/v1/jobs/{submitted['job_id']}"
            )
            return submitted, json.loads(poll_body)

        submitted, polled = asyncio.run(scenario())
        assert submitted["state"] == "queued"
        assert validate_envelope(submitted) == []
        assert polled["state"] == "running"

    def test_draining_service_rejects_submissions(self, service):
        service.draining = True

        async def scenario():
            return await self._handle(
                service, "POST", "/v1/jobs", {"workflow": "negotiate", "request": {}}
            )

        status, body, _ = asyncio.run(scenario())
        assert status == 503
        assert json.loads(body)["http_status"] == 503


@pytest.fixture(scope="module")
def id_service(tmp_path_factory):
    service = ServeService(
        Session(),
        cache_entries=8,
        state_dir=tmp_path_factory.mktemp("ids") / "state",
    )
    yield service
    asyncio.run(service.aclose())


def _answer(service, method, path):
    request = HttpRequest(method=method, path=path, query="", body=b"")
    status, body, _ = asyncio.run(service.handle(request))
    return status, json.loads(body)


def _assert_unknown_job(service, method, job_id):
    status, document = _answer(service, method, f"/v1/jobs/{job_id}")
    assert status == 404, document
    assert "unknown job" in document["error"]
    # The service keeps answering valid requests.
    status, document = _answer(service, "GET", "/v1/health")
    assert status == 200 and document["status"] == "ok"


@pytest.mark.parametrize("method", ["GET", "DELETE"])
@pytest.mark.parametrize(
    "job_id",
    ["a\x00b", "x" * 300, "", ".", "..", "../jobs", "a/b", "0" * 19 + "-1-ABCDEF"],
    ids=["nul", "too-long", "empty", "dot", "dotdot", "parent", "slash", "upper-hex"],
)
def test_malformed_job_ids_are_404(id_service, method, job_id):
    _assert_unknown_job(id_service, method, job_id)


@settings(max_examples=150, deadline=None)
@given(method=st.sampled_from(["GET", "DELETE"]), job_id=st.text(max_size=300))
def test_any_text_job_id_is_never_a_500(id_service, method, job_id):
    _assert_unknown_job(id_service, method, job_id)

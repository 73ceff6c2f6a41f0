"""Typed blocking client for ``repro serve`` (stdlib ``http.client``).

:class:`ServeClient` mirrors :class:`~repro.api.session.Session`'s
surface, one method per route — ``topology()``, ``diversity()``,
``experiments()``, ``simulate()``, ``negotiate()`` — each taking the
same typed request dataclass and returning the same typed result, plus
a ``jobs`` namespace (``submit``/``poll``/``wait``/``cancel``) for the
async job API.  Tests, the CI smoke-load script, and
``benchmarks/bench_serve.py`` all talk to the server through this
class, so the request/response plumbing is written once.

Failures come back typed too: an ``error_result`` envelope decodes to
an :class:`~repro.api.results.ErrorResult` and is re-raised as the
:class:`~repro.errors.ReproError` subclass its ``(exit_code,
http_status)`` pair maps to in the shared
:data:`~repro.errors.STATUS_TABLE` (:func:`~repro.errors.
error_class_for`), so ``except ValidationError`` works the same against
a server as against a local session.

A client holds one keep-alive connection and is **not** thread-safe —
concurrent-load callers create one client per thread, which is also
what exercises the server's cross-client coalescing.  ``raw_get`` /
``raw_post`` / ``raw_delete`` expose the undecoded exchange for tests
that pin wire-level behavior (status codes, headers, exact bytes).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Mapping

from repro.api.requests import (
    WORKFLOWS,
    DiversityRequest,
    ExperimentsRequest,
    JobRequest,
    NegotiateRequest,
    SimulateRequest,
    TopologyRequest,
)
from repro.api.results import (
    DiversityResult,
    ErrorResult,
    ExperimentsResult,
    JobStatusResult,
    NegotiateResult,
    SimulateResult,
    TopologyResult,
)
from repro.errors import ServiceError

__all__ = ["ServeClient", "ServeResponse"]


class ServeResponse:
    """Status + raw body + headers of one exchange, with lazy JSON."""

    def __init__(
        self, status: int, body: bytes, headers: Mapping[str, str] | None = None
    ) -> None:
        self.status = status
        self.body = body
        self.headers = {k.lower(): v for k, v in (headers or {}).items()}

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))

    @property
    def worker_pid(self) -> int | None:
        """The serving worker's pid (from ``X-Repro-Worker``)."""
        value = self.headers.get("x-repro-worker")
        return int(value) if value and value.isdigit() else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServeResponse(status={self.status}, body={self.body[:80]!r})"


class _JobsNamespace:
    """``client.jobs``: the submit-then-poll surface of the async API."""

    def __init__(self, client: "ServeClient") -> None:
        self._client = client

    def submit(
        self,
        workflow: str | JobRequest,
        request: Mapping[str, Any] | Any | None = None,
    ) -> JobStatusResult:
        """Submit a workflow for async execution; returns its first status.

        Accepts a prepared :class:`JobRequest`, or a workflow name plus
        either a typed request object or a bare payload mapping.
        """
        if isinstance(workflow, JobRequest):
            job = workflow
        else:
            if hasattr(request, "to_json_dict"):
                document: Mapping[str, Any] = request.to_json_dict()
            else:
                document = dict(request or {})
            job = JobRequest(workflow=workflow, request=document)
        response = self._client.raw_post("/v1/jobs", job.to_json_dict())
        payload = self._client._decoded(response, expected_status=202)
        return JobStatusResult.from_json_dict(payload)

    def poll(self, job_id: str) -> JobStatusResult:
        """One status observation of a job."""
        response = self._client.raw_get(f"/v1/jobs/{job_id}")
        return JobStatusResult.from_json_dict(self._client._decoded(response))

    def cancel(self, job_id: str) -> JobStatusResult:
        """Cancel a queued job; returns the resulting status."""
        response = self._client.raw_delete(f"/v1/jobs/{job_id}")
        return JobStatusResult.from_json_dict(self._client._decoded(response))

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 120.0,
        interval: float = 0.1,
        raise_on_failure: bool = True,
    ) -> JobStatusResult:
        """Poll until the job is terminal; return the final status.

        A ``failed`` job re-raises its recorded ``error_result`` as the
        typed exception the workflow would have raised locally (disable
        with ``raise_on_failure=False``).
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.poll(job_id)
            if status.is_terminal:
                if status.error is not None and raise_on_failure:
                    raise status.error.to_exception()
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status.state} after {timeout:g}s"
                )
            time.sleep(interval)


class ServeClient:
    """One keep-alive connection to a running ``repro serve``."""

    def __init__(self, host: str, port: int, *, timeout: float = 120.0) -> None:
        self._connection = http.client.HTTPConnection(
            host, port, timeout=timeout
        )
        self.jobs = _JobsNamespace(self)
        #: Pid of the worker that served the most recent response.
        self.last_worker_pid: int | None = None

    # ------------------------------------------------------------------
    # Raw exchanges (tests pin wire behavior through these)
    # ------------------------------------------------------------------
    def raw_get(self, path: str) -> ServeResponse:
        self._connection.request("GET", path)
        return self._read()

    def raw_post(
        self, path: str, payload: Mapping[str, Any] | None = None
    ) -> ServeResponse:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        self._connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        return self._read()

    def raw_delete(self, path: str) -> ServeResponse:
        self._connection.request("DELETE", path)
        return self._read()

    def _read(self) -> ServeResponse:
        response = self._connection.getresponse()
        result = ServeResponse(
            response.status, response.read(), dict(response.getheaders())
        )
        if result.worker_pid is not None:
            self.last_worker_pid = result.worker_pid
        return result

    def _decoded(
        self, response: ServeResponse, *, expected_status: int = 200
    ) -> dict[str, Any]:
        """Decode an envelope; raise the typed error on failure statuses."""
        try:
            document = response.json()
        except (ValueError, UnicodeDecodeError) as error:
            raise ServiceError(
                f"server returned non-JSON body (status {response.status})"
            ) from error
        if not isinstance(document, dict):
            raise ServiceError(
                f"server returned a non-envelope body (status {response.status})"
            )
        if document.get("kind") == ErrorResult.kind:
            # A malformed one raises its EnvelopeError naming the field.
            raise ErrorResult.from_json_dict(document).to_exception()
        if response.status != expected_status:
            raise ServiceError(
                f"unexpected status {response.status} "
                f"(expected {expected_status})"
            )
        return document

    # ------------------------------------------------------------------
    # Typed routes: one method per workflow, mirroring Session
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """The decoded ``serve_health`` envelope."""
        return self._decoded(self.raw_get("/v1/health"))

    def stats(self) -> dict[str, Any]:
        """The decoded (merged, cross-worker) ``serve_stats`` envelope."""
        return self._decoded(self.raw_get("/v1/stats"))

    def topology(self, request: TopologyRequest | None = None) -> TopologyResult:
        return self._workflow(TopologyRequest, request)

    def diversity(self, request: DiversityRequest | None = None) -> DiversityResult:
        return self._workflow(DiversityRequest, request)

    def experiments(
        self, request: ExperimentsRequest | None = None
    ) -> ExperimentsResult:
        return self._workflow(ExperimentsRequest, request)

    def simulate(self, request: SimulateRequest | None = None) -> SimulateResult:
        return self._workflow(SimulateRequest, request)

    def negotiate(self, request: NegotiateRequest | None = None) -> NegotiateResult:
        return self._workflow(NegotiateRequest, request)

    def _workflow(self, request_type: type, request: Any) -> Any:
        """POST to the request type's route; decode its result type."""
        workflow = next(w for w in WORKFLOWS.values() if w.request_type is request_type)
        payload = None if request is None else request.to_json_dict()
        response = self.raw_post(f"/v1/{workflow.name}", payload)
        return workflow.result_type.from_json_dict(self._decoded(response))

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

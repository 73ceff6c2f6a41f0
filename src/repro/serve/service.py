"""Request routing and execution: HTTP envelopes → one warm session.

The service owns the pieces the server wires together:

- **one** :class:`~repro.api.session.Session`, driven through a
  single-worker executor so compute runs off the event loop while
  staying strictly serialized (the session's own lock makes even that
  serialization a guarantee, not an accident);
- the :class:`~repro.serve.coalesce.CoalescingScheduler` for
  negotiation requests;
- the two-tier :class:`~repro.serve.cache.ResultCache` of serialized
  envelope bytes — a per-process LRU over the content-addressed
  :class:`~repro.core.store.Store` every worker of a pre-fork
  supervisor shares;
- the :class:`~repro.serve.jobs.JobStore`/:class:`~repro.serve.jobs.
  JobRunner` pair behind the async job API;
- the :class:`~repro.serve.board.WorkerBoard` that merges per-worker
  counters into one ``/stats`` view;
- the :class:`~repro.serve.log.RequestLog`.

Every route is **versioned**: ``POST /v1/<name>`` for each routable
workflow of :data:`~repro.api.requests.WORKFLOWS`, the job API (``POST
/v1/jobs``, ``GET``/``DELETE /v1/jobs/<id>``), ``GET /v1/health`` and
``GET /v1/stats``.  Any other path, bare unversioned ones included,
gets a ``404`` ``error_result`` listing these routes.

A request body may be a full schema-versioned envelope or a bare
payload object (convenient for ``curl``); an empty body means "all
defaults".  Bodies decode through the type-checking envelope codec, so
an ill-typed field is a ``400`` naming it, never a ``500``.  Responses
are always envelopes — results on success, an ``error_result``
(message + the CLI exit code + the HTTP status, from the one
:data:`~repro.errors.STATUS_TABLE`) on failure — serialized
exactly like ``--format json`` prints them, trailing newline included,
so a served response is byte-identical to the CLI's output for the
same request.  Every response names its worker process in an
``X-Repro-Worker`` header (a framing header, never body bytes).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import tempfile
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.api.requests import (
    WORKFLOWS,
    JobRequest,
    NegotiateRequest,
    SweepRequest,
    Workflow,
    decode_request,
)
from repro.api.results import JobStatusResult, NegotiateResult
from repro.api.session import Session
from repro.core.store import Store, input_files, store_key
from repro.envelope import envelope
from repro.errors import (
    ReproError,
    ServiceUnavailableError,
    ValidationError,
    exit_code_for,
    http_status_for,
)
from repro.serve.board import WorkerBoard
from repro.serve.cache import ResultCache, merge_cache_stats
from repro.serve.coalesce import CoalescingScheduler
from repro.serve.http import HttpRequest
from repro.serve.jobs import JobRunner, JobStore
from repro.serve.log import RequestLog

__all__ = ["ServeService", "serialize_envelope"]

#: The store namespace (and format) of served response bytes.
RESULT_NAMESPACE = "serve-result-v1"


def serialize_envelope(document: dict[str, Any]) -> bytes:
    """Envelope → response bytes, exactly as the CLI prints them."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _error_payload(message: str, *, exit_code: int, http_status: int) -> bytes:
    return serialize_envelope(
        envelope(
            "error_result",
            {
                "error": message,
                "exit_code": exit_code,
                "http_status": http_status,
            },
        )
    )


def _rejected(status: int, message: str) -> tuple[int, bytes, None, None, None]:
    """A routing-layer client error (exit code 2), as a route result."""
    body = _error_payload(message, exit_code=2, http_status=status)
    return status, body, None, None, None


def _method_not_allowed(
    request: HttpRequest, allowed: str
) -> tuple[int, bytes, None, None, None]:
    return _rejected(
        405, f"method {request.method} not allowed for {request.path} (use {allowed})"
    )


def _error_response(error: ReproError) -> tuple[int, bytes]:
    status = http_status_for(error)
    return status, _error_payload(
        str(error), exit_code=exit_code_for(error), http_status=status
    )


def _build_request(request_type: type, body: bytes) -> Any:
    """Decode a body (envelope, bare payload, or empty) into a request."""
    text = body.decode("utf-8", errors="replace").strip()
    try:
        data = json.loads(text) if text else {}
    except (ValueError, RecursionError) as error:
        # ValueError covers JSONDecodeError and over-long integer literals.
        raise ValidationError(f"request body is not valid JSON: {error}") from error
    return decode_request(request_type, data)


class ServeService:
    """Everything behind the socket: routing, caching, coalescing, jobs."""

    def __init__(
        self,
        session: Session,
        *,
        coalesce_window_ms: float = 5.0,
        max_batch: int = 32,
        cache_entries: int | None = 256,
        request_log: RequestLog | None = None,
        state_dir: str | os.PathLike[str] | None = None,
    ) -> None:
        self.session = session
        # The state dir is the cross-process substrate: shared result
        # store, job queue, worker board.  Without one a private
        # tempdir is used (single-process semantics, cleaned on close).
        self._state_tmp: tempfile.TemporaryDirectory | None = None
        if state_dir is None:
            self._state_tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
            state_dir = self._state_tmp.name
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        store = Store(self.state_dir / "results-cache") if cache_entries != 0 else None
        self.cache = ResultCache(cache_entries, store=store)
        self.coalescer = CoalescingScheduler(
            window_s=coalesce_window_ms / 1000.0,
            max_batch=max_batch,
            solve=self._solve_batch,
        )
        self.jobs = JobStore(self.state_dir / "jobs")
        self.job_runner = JobRunner(self.jobs, self._execute_job)
        # A (re)starting worker releases claims of dead predecessors so
        # their jobs run again instead of hanging "running" forever.
        self.jobs.requeue_orphans()
        self.board = WorkerBoard(self.state_dir / "workers")
        self.log = request_log if request_log is not None else RequestLog(None)
        #: Compute runs here, off the event loop but strictly serialized.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self.requests_total = 0
        self.active = 0
        self.draining = False

    # ------------------------------------------------------------------
    # Compute plumbing
    # ------------------------------------------------------------------
    async def _call(self, fn: Callable, *args: Any) -> Any:
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _solve_batch(
        self, requests: Sequence[NegotiateRequest]
    ) -> list[NegotiateResult]:
        return await self._call(self.session.negotiate_many, list(requests))

    # ------------------------------------------------------------------
    # HTTP entry point
    # ------------------------------------------------------------------
    async def handle(
        self, request: HttpRequest
    ) -> tuple[int, bytes, dict[str, str]]:
        """Serve one parsed request: ``(status, body, extra headers)``."""
        started = time.perf_counter()
        queue_depth = self.active
        self.active += 1
        self.requests_total += 1
        kind: str | None = None
        cache_state: str | None = None
        batch_size: int | None = None
        try:
            status, body, kind, cache_state, batch_size = await self._route(
                request
            )
        except ReproError as error:
            status, body = _error_response(error)
        except Exception as error:  # noqa: BLE001 - a route bug must not
            # tear down the connection loop; answer 500 and keep serving.
            status, body = 500, _error_payload(
                f"internal error: {error}", exit_code=1, http_status=500
            )
        finally:
            self.active -= 1
        latency_ms = (time.perf_counter() - started) * 1000.0
        self.log.record(
            method=request.method,
            path=request.path,
            status=status,
            latency_ms=round(latency_ms, 3),
            queue_depth=queue_depth,
            kind=kind,
            cache=cache_state,
            batch_size=batch_size,
        )
        self.board.publish(self._snapshot())
        return status, body, {"X-Repro-Worker": str(self.board.pid)}

    async def _route(
        self, request: HttpRequest
    ) -> tuple[int, bytes, str | None, str | None, int | None]:
        # Unversioned paths match nothing below and end as the 404.
        path = request.path[len("/v1") :] if request.path.startswith("/v1/") else ""
        if path == "/jobs" or path.startswith("/jobs/"):
            return await self._route_jobs(request, path)
        if path == "/health":
            if request.method != "GET":
                return _method_not_allowed(request, "GET")
            status = "draining" if self.draining else "ok"
            body = serialize_envelope(envelope("serve_health", {"status": status}))
            return 200, body, "serve_health", None, None
        if path == "/stats":
            if request.method != "GET":
                return _method_not_allowed(request, "GET")
            return 200, serialize_envelope(self.stats_payload()), (
                "serve_stats"
            ), None, None
        workflow = WORKFLOWS.get(path.strip("/"))
        if workflow is None or not workflow.routable:
            known = ", ".join(sorted(w.name for w in WORKFLOWS.values() if w.routable))
            return _rejected(
                404,
                f"unknown path {request.path!r}; routes: /v1/health, "
                f"/v1/stats, /v1/jobs, and POST /v1/{{{known}}}",
            )
        if request.method != "POST":
            return _method_not_allowed(request, "POST")
        if self.draining:
            raise ServiceUnavailableError(
                "server is draining; not accepting new work"
            )
        typed = _build_request(workflow.request_type, request.body)
        return await self._execute(workflow, typed)

    async def _execute(
        self, workflow: Workflow, typed: Any
    ) -> tuple[int, bytes, str, str, int | None]:
        """Run one typed workflow request, through the cache when allowed."""
        kind = workflow.request_type.kind
        key: str | None = None
        if workflow.cacheable(typed):
            params = typed.to_json_dict()
            files = input_files(type(typed), params)
            # Hashing input files is file I/O: it runs on the executor.
            key = (
                await self._call(store_key, RESULT_NAMESPACE, params, files)
                if files
                else store_key(RESULT_NAMESPACE, params)
            )
            cached = self.cache.lookup(key)
            if cached is not None:
                return 200, cached, kind, "hit", None
        batch_size: int | None = None
        if isinstance(typed, NegotiateRequest):
            result, batch_size = await self.coalescer.submit(typed)
        else:
            result = await self._call(getattr(self.session, workflow.method), typed)
        body = serialize_envelope(result.to_json_dict())
        if key is not None:
            self.cache.store(key, body)
            return 200, body, kind, "miss", batch_size
        return 200, body, kind, "bypass", batch_size

    # ------------------------------------------------------------------
    # The async job API
    # ------------------------------------------------------------------
    async def _route_jobs(
        self, request: HttpRequest, path: str
    ) -> tuple[int, bytes, str | None, str | None, int | None]:
        if path == "/jobs":
            if request.method != "POST":
                return _method_not_allowed(request, "POST")
            if self.draining:
                raise ServiceUnavailableError(
                    "server is draining; not accepting new work"
                )
            typed = _build_request(JobRequest, request.body)
            job_id = self.jobs.submit(typed)
            # The reply describes the submission itself: by now any
            # worker may have claimed the job, which a poll reports.
            submitted = JobStatusResult(
                job_id=job_id, workflow=typed.workflow, state="queued", progress={}
            )
            self.job_runner.wake()
            body = serialize_envelope(submitted.to_json_dict())
            return 202, body, "job_request", None, None
        job_id = path[len("/jobs/") :]
        if request.method == "GET":
            status = self.jobs.status(job_id)
        elif request.method == "DELETE":
            status = self.jobs.cancel(job_id)
        else:
            return _method_not_allowed(request, "GET or DELETE")
        if status is None:
            return _rejected(404, f"unknown job {request.path!r}")
        body = serialize_envelope(status.to_json_dict())
        return 200, body, "job_status_result", None, None

    async def _execute_job(
        self, request: JobRequest, *, progress: Callable[[dict[str, Any]], None]
    ) -> dict[str, Any]:
        """Run one claimed job to its result envelope (the runner's hook).

        Work goes through the same single-thread executor as the
        synchronous routes, so job compute serializes with request
        compute instead of racing the session.
        """
        typed = request.typed_request()
        method = getattr(self.session, WORKFLOWS[request.workflow].method)
        if isinstance(typed, SweepRequest):
            on_message = _sweep_progress(progress)
            result = await self._call(
                lambda: method(typed, progress=on_message)
            )
        else:
            result = await self._call(method, typed)
        return result.to_json_dict()

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict[str, Any]:
        """This worker's counters, as published on the board."""
        return {
            "pid": self.board.pid,
            "requests_total": self.requests_total,
            "result_cache": self.cache.stats(),
            "coalescing": self.coalescer.stats(),
            "jobs_run": self.job_runner.jobs_run,
        }

    def stats_payload(self) -> dict[str, Any]:
        """The ``serve_stats`` envelope served on ``/stats``.

        Counters are merged across every worker that ever published on
        the board (this worker's live values replace its possibly stale
        snapshot), so any connection sees cluster-wide totals no matter
        which worker answers.
        """
        own = self._snapshot()
        others = [
            snapshot
            for pid, snapshot in self.board.read_all().items()
            if pid != self.board.pid
        ]
        merged = [own, *others]
        coalescing = dict(own["coalescing"])
        for snapshot in others:
            peer = snapshot.get("coalescing", {})
            for counter in (
                "requests",
                "batches",
                "coalesced_requests",
                "solo_retries",
            ):
                coalescing[counter] += int(peer.get(counter, 0))
            coalescing["max_batch_size"] = max(
                coalescing["max_batch_size"], int(peer.get("max_batch_size", 0))
            )
        return envelope(
            "serve_stats",
            {
                "requests_total": sum(
                    int(s.get("requests_total", 0)) for s in merged
                ),
                "active_requests": self.active,
                "draining": self.draining,
                "result_cache": merge_cache_stats(
                    [s.get("result_cache", {}) for s in merged]
                ),
                "coalescing": coalescing,
                "session": self.session.cache_stats(),
                "log_records": self.log.records_written,
                "jobs": self.jobs.counts(),
                "worker_pid": self.board.pid,
                "workers": {
                    str(s.get("pid", "?")): {
                        "requests_total": int(s.get("requests_total", 0)),
                        "jobs_run": int(s.get("jobs_run", 0)),
                    }
                    for s in merged
                },
            },
        )

    async def aclose(self) -> None:
        """Stop the job runner and coalescer, the worker, and the log."""
        await self.job_runner.aclose()
        await self.coalescer.drain()
        self._executor.shutdown(wait=True)
        self.log.close()
        if self._state_tmp is not None:
            with contextlib.suppress(OSError):
                self._state_tmp.cleanup()
            self._state_tmp = None


def _sweep_progress(
    progress: Callable[[dict[str, Any]], None],
) -> Callable[[str], None]:
    """Adapt the sweep's message callback into progress-dict updates."""
    state = {"completed": 0, "total": 0}

    def on_message(message: str) -> None:
        header = re.match(r"(\d+) shards: (\d+) cached, (\d+) to compute", message)
        if header:
            state["total"] = int(header.group(1))
            state["completed"] = int(header.group(2))
        elif message.startswith("done "):
            state["completed"] += 1
        progress({**state, "last": message})

    return on_message

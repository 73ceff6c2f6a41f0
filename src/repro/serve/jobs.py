"""Asynchronous jobs: submit-then-poll execution over a shared directory.

``POST /v1/jobs`` exists because slow workflows (``sweep``,
``experiments``, long ``simulate`` runs) should not occupy a keep-alive
connection start-to-finish: the submit returns a job id immediately and
the client polls ``GET /v1/jobs/<id>`` until the state is terminal.

All job state lives on the filesystem, one directory per job under the
server's shared state dir, written with crash-safe primitives only:

- ``job.json`` — the submitted ``job_request`` envelope, published with
  :func:`~repro.core.store.write_atomic` (a job either exists completely
  or not at all);
- ``events.jsonl`` — append-only lifecycle log (``queued``,
  ``claimed``, ``progress``, ``requeued``, ``cancelled``, ``done``,
  ``failed``), each line a single ``write()`` so readers never see a
  torn record (a truncated final line from a crash is skipped);
- ``claim`` — created with ``O_EXCL`` by the worker that picked the job
  up, holding its pid: the atomic create is the cross-process
  arbitration, no locks;
- ``result.json`` / ``error.json`` — the workflow's result (or
  ``error_result``) envelope, atomic-replaced; *presence* of the file
  is what makes the state terminal, so a crash mid-write can never
  produce a half-done job.

Because every transition is an atomic filesystem operation, a worker
killed mid-job leaves an inspectable record: the claim names a dead
pid, the events show how far it got.  The supervisor (and every worker
at startup) calls :meth:`JobStore.requeue_orphans`, which removes dead
claims so a live worker re-runs the job from its queued record.

Each worker process runs one :class:`JobRunner`: an asyncio loop that
claims queued jobs and executes them through the service's single
worker thread — job compute and synchronous requests serialize on the
same executor, so a running job never races the session.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import secrets
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.api.requests import JobRequest
from repro.api.results import ErrorResult, JobStatusResult
from repro.core.store import write_atomic
from repro.envelope import canonical_text

__all__ = ["JobStore", "JobRunner"]

#: The exact shape of the ids :meth:`JobStore.submit` issues; any other
#: id names no job.
_JOB_ID = re.compile(r"[0-9]{19}-[0-9]+-[0-9a-f]{6}")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


class JobStore:
    """Directory-backed job queue and status record, safe across processes."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths and low-level records
    # ------------------------------------------------------------------
    def _append_event(self, job_id: str, event: str, **extra: Any) -> None:
        record = {"event": event, "ts": time.time(), **extra}
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        with open(self.root / job_id / "events.jsonl", "a", encoding="utf-8") as f:
            f.write(line)
            f.flush()

    def _events(self, job_id: str) -> list[dict[str, Any]]:
        try:
            text = (self.root / job_id / "events.jsonl").read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        events = []
        for line in text.splitlines():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                # A crash mid-append can truncate the final line; every
                # complete line before it is still valid.
                continue
        return events

    def _read_envelope(self, job_id: str, name: str) -> dict[str, Any] | None:
        try:
            return json.loads(
                (self.root / job_id / name).read_text(encoding="utf-8")
            )
        except FileNotFoundError:
            return None

    def _write_envelope(self, job_id: str, name: str, document: dict[str, Any]) -> None:
        write_atomic(self.root / job_id / name, canonical_text(document).encode("utf-8"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> str:
        """Persist a validated submission; returns the new job id.

        Ids sort by submission time (a zero-padded nanosecond prefix),
        so "claim the oldest queued job" is a directory listing.
        """
        job_id = f"{time.time_ns():019d}-{os.getpid()}-{secrets.token_hex(3)}"
        job_dir = self.root / job_id
        job_dir.mkdir(parents=True)
        self._write_envelope(job_id, "job.json", request.to_json_dict())
        self._append_event(job_id, "queued", workflow=request.workflow)
        return job_id

    def request_for(self, job_id: str) -> JobRequest | None:
        document = self._read_envelope(job_id, "job.json")
        if document is None:
            return None
        return JobRequest.from_json_dict(document)

    def status(self, job_id: str) -> JobStatusResult | None:
        """The current observation of one job (``None`` if unknown)."""
        if not _JOB_ID.fullmatch(job_id):
            return None
        document = self._read_envelope(job_id, "job.json")
        if document is None:
            return None
        workflow = str(document.get("workflow", ""))
        result = self._read_envelope(job_id, "result.json")
        error = self._read_envelope(job_id, "error.json")
        events = self._events(job_id)
        progress: dict[str, Any] = {}
        cancelled = False
        for event in events:
            if event.get("event") == "progress":
                progress.update(event.get("progress", {}))
            elif event.get("event") == "cancelled":
                cancelled = True
        if result is not None:
            state = "done"
        elif error is not None:
            state = "failed"
        elif cancelled:
            state = "cancelled"
        elif self._live_claim(job_id) is not None:
            state = "running"
        else:
            state = "queued"
        return JobStatusResult(
            job_id=job_id,
            workflow=workflow,
            state=state,
            progress=progress,
            result=result,
            error=None if error is None else ErrorResult.from_json_dict(error),
        )

    def _live_claim(self, job_id: str) -> int | None:
        """The pid holding the job's claim, or ``None`` (absent or dead)."""
        try:
            text = (self.root / job_id / "claim").read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return None
        try:
            pid = int(text.strip() or "0")
        except ValueError:
            return None
        return pid if pid and _pid_alive(pid) else None

    def claim_next(self, *, pid: int | None = None) -> tuple[str, JobRequest] | None:
        """Atomically claim the oldest queued job for ``pid``.

        The ``O_EXCL`` create of the ``claim`` file is the arbitration:
        of any number of workers racing on a job, exactly one wins and
        the rest move on.
        """
        pid = os.getpid() if pid is None else pid
        for job_dir in sorted(self.root.iterdir()):
            if not job_dir.is_dir():
                continue
            job_id = job_dir.name
            if (job_dir / "result.json").exists() or (job_dir / "error.json").exists():
                continue
            if (job_dir / "claim").exists():
                continue
            status = self.status(job_id)
            if status is None or status.state != "queued":
                continue
            try:
                with open(job_dir / "claim", "x", encoding="utf-8") as f:
                    f.write(str(pid))
            except FileExistsError:
                continue
            request = self.request_for(job_id)
            if request is None:  # pragma: no cover - submit is atomic
                continue
            self._append_event(job_id, "claimed", pid=pid)
            return job_id, request
        return None

    def record_progress(self, job_id: str, progress: dict[str, Any]) -> None:
        """Append one progress observation (merged into the status view)."""
        self._append_event(job_id, "progress", progress=progress)

    def finish(self, job_id: str, result_envelope: dict[str, Any]) -> None:
        """Publish the result envelope; the job becomes ``done``."""
        self._write_envelope(job_id, "result.json", result_envelope)
        self._append_event(job_id, "done")

    def fail(self, job_id: str, error: BaseException) -> None:
        """Publish an ``error_result`` envelope; the job becomes ``failed``."""
        failure = ErrorResult.from_exception(error)
        self._write_envelope(job_id, "error.json", failure.to_json_dict())
        self._append_event(job_id, "failed")

    def cancel(self, job_id: str) -> JobStatusResult | None:
        """Cancel a queued job; running/terminal jobs are left unchanged.

        Returns the post-cancel observation (``None`` if the job is
        unknown).  A running workflow executes on a worker thread and
        cannot be interrupted safely, so ``DELETE`` on a running job is
        a no-op the returned state makes visible.
        """
        status = self.status(job_id)
        if status is None:
            return None
        if status.state == "queued":
            self._append_event(job_id, "cancelled")
            return self.status(job_id)
        return status

    # ------------------------------------------------------------------
    # Recovery and introspection
    # ------------------------------------------------------------------
    def requeue_orphans(self, *, alive: Iterable[int] | None = None) -> list[str]:
        """Release claims held by dead workers; returns the requeued ids.

        ``alive`` is the supervisor's authoritative set of worker pids;
        when omitted, liveness is probed with ``kill(pid, 0)`` (what a
        worker scanning at startup can do).
        """
        alive_set = None if alive is None else {int(pid) for pid in alive}
        requeued: list[str] = []
        for job_dir in sorted(self.root.iterdir()):
            claim = job_dir / "claim"
            if not claim.exists():
                continue
            if (job_dir / "result.json").exists() or (job_dir / "error.json").exists():
                continue
            try:
                pid = int(claim.read_text(encoding="utf-8").strip() or "0")
            except (ValueError, OSError):
                pid = 0
            holder_alive = (
                pid in alive_set if alive_set is not None else pid and _pid_alive(pid)
            )
            if holder_alive:
                continue
            with contextlib.suppress(FileNotFoundError):
                claim.unlink()
            self._append_event(job_dir.name, "requeued", dead_pid=pid)
            requeued.append(job_dir.name)
        return requeued

    def counts(self) -> dict[str, int]:
        """Jobs per state, for ``/stats``."""
        counts = {s: 0 for s in ("queued", "running", "done", "failed", "cancelled")}
        for job_dir in self.root.iterdir():
            if not job_dir.is_dir():
                continue
            status = self.status(job_dir.name)
            if status is not None:
                counts[status.state] += 1
        return counts


class JobRunner:
    """One worker's claim-and-execute loop over a shared :class:`JobStore`.

    ``execute`` runs the typed workflow request to a result envelope
    (the service provides it, routing through the same single worker
    thread synchronous requests use); ``progress`` callbacks from the
    workflow land in the job's event log as they happen.
    """

    #: How often an idle runner re-scans for jobs queued by *other*
    #: workers (same-process submissions wake it immediately).
    poll_interval_s = 0.2

    def __init__(
        self,
        store: JobStore,
        execute: Callable[..., Any],
    ) -> None:
        self.store = store
        self._execute = execute
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._stopping = False
        self.jobs_run = 0

    def start(self) -> None:
        """Start the claim loop on the running event loop."""
        self._task = asyncio.get_running_loop().create_task(self._run())

    def wake(self) -> None:
        """Nudge the loop (called on same-process submissions)."""
        self._wake.set()

    async def _run(self) -> None:
        while not self._stopping:
            claimed = self.store.claim_next()
            if claimed is None:
                self._wake.clear()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=self.poll_interval_s
                    )
                continue
            job_id, request = claimed
            await self._run_one(job_id, request)

    async def _run_one(self, job_id: str, request: JobRequest) -> None:
        try:
            result_envelope = await self._execute(
                request,
                progress=lambda update: self.store.record_progress(job_id, update),
            )
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 - a failed job must
            # become a failed *record*, not a dead runner.
            self.store.fail(job_id, error)
        else:
            self.store.finish(job_id, result_envelope)
        self.jobs_run += 1

    async def aclose(self) -> None:
        """Stop claiming; wait for the in-flight job to finish."""
        self._stopping = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None

"""The pre-fork supervisor: shared accept, crash restart, coordinated drain.

These tests launch ``repro serve --workers 2`` as a real child process
(the supervisor forks the workers) and exercise the properties the
multi-process design promises: one listen queue feeding every worker,
byte-identical answers regardless of which worker serves, a shared
on-disk result cache that survives the death of the worker that filled
it, automatic restart of SIGKILLed workers, and a SIGTERM fan-out that
drains every worker before the supervisor exits 0.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import NegotiateRequest, Session
from repro.serve.client import ServeClient

TINY_NEGOTIATE = {"num_choices": 10, "trials": 5, "seed": 3}
WORKER_ARGS = ["--workers", "2"]


def _pid_wave(port: int, clients: int = 8) -> tuple[set[int], list[bytes]]:
    """Concurrent fresh-connection requests; the pids and bodies seen."""

    def one_request(_: int) -> tuple[int, bytes]:
        with ServeClient("127.0.0.1", port) as client:
            response = client.raw_post("/v1/negotiate", TINY_NEGOTIATE)
            assert response.status == 200
            assert response.worker_pid is not None
            return response.worker_pid, response.body

    with ThreadPoolExecutor(max_workers=clients) as pool:
        results = list(pool.map(one_request, range(clients)))
    return {pid for pid, _ in results}, [body for _, body in results]


def _collect_pids(port: int, *, need: int = 2, waves: int = 12) -> set[int]:
    """Fire waves of concurrent clients until ``need`` distinct pids answer."""
    seen: set[int] = set()
    for _ in range(waves):
        pids, _ = _pid_wave(port)
        seen |= pids
        if len(seen) >= need:
            break
    return seen


class TestMultiWorkerAccept:
    def test_both_workers_serve_the_shared_socket(self, serve_process):
        server = serve_process(WORKER_ARGS)
        seen = _collect_pids(server.port)
        assert len(seen) >= 2
        # Every body in a wave is byte-identical no matter which worker
        # computed it — the contract the bench's multi-worker tier relies on.
        pids, bodies = _pid_wave(server.port)
        assert len(set(bodies)) == 1
        assert server.terminate_and_wait() == 0

    def test_stats_merge_counts_every_worker(self, serve_process):
        server = serve_process(WORKER_ARGS)
        seen = _collect_pids(server.port)
        with ServeClient("127.0.0.1", server.port) as client:
            stats = client.stats()
        workers = {int(pid) for pid in stats["workers"]}
        assert seen <= workers
        total_per_worker = sum(
            entry["requests_total"] for entry in stats["workers"].values()
        )
        assert stats["requests_total"] == total_per_worker
        assert server.terminate_and_wait() == 0

    def test_responses_match_the_sequential_session(self, serve_process):
        server = serve_process(WORKER_ARGS)
        with ServeClient("127.0.0.1", server.port) as client:
            served = client.negotiate(NegotiateRequest(**TINY_NEGOTIATE))
        expected = Session().negotiate(NegotiateRequest(**TINY_NEGOTIATE))
        assert served == expected
        assert server.terminate_and_wait() == 0


class TestCrashRestart:
    def test_sigkilled_worker_drops_no_requests_and_is_replaced(
        self, serve_process
    ):
        """The headline resilience property, under concurrent client load.

        Warm the shared cache through one worker, SIGKILL that exact
        worker, then immediately load the server with 8 concurrent
        clients: every request succeeds with the byte-identical cached
        body (a surviving worker serves it from the shared disk store),
        and within a few seconds the supervisor has forked a
        replacement worker.
        """
        server = serve_process(WORKER_ARGS)
        with ServeClient("127.0.0.1", server.port) as client:
            warm = client.raw_post("/v1/negotiate", TINY_NEGOTIATE)
        assert warm.status == 200
        victim = warm.worker_pid
        assert victim is not None

        os.kill(victim, signal.SIGKILL)

        # No dropped connections: the shared listen queue means the
        # sibling accepts everything while the victim is being replaced.
        pids, bodies = _pid_wave(server.port, clients=8)
        assert set(bodies) == {warm.body}
        assert victim not in pids

        # The computing worker is dead, so these replays came off the
        # shared disk store: some surviving worker counted a disk hit.
        with ServeClient("127.0.0.1", server.port) as client:
            stats = client.stats()
        assert stats["result_cache"]["disk_hits"] >= 1

        # The supervisor restarts the victim: a brand-new pid joins.
        deadline = time.monotonic() + 10.0
        replacement_seen = False
        while time.monotonic() < deadline and not replacement_seen:
            current, _ = _pid_wave(server.port)
            replacement_seen = bool(current - {victim} - pids)
            if not replacement_seen:
                time.sleep(0.2)
        assert replacement_seen, "no replacement worker appeared within 10s"
        assert server.terminate_and_wait() == 0

    def test_sigterm_drains_every_worker_to_exit_zero(self, serve_process):
        server = serve_process(WORKER_ARGS)
        _collect_pids(server.port)  # both workers have served traffic
        assert server.terminate_and_wait() == 0

    def test_sigkilled_supervisor_leaves_no_orphan_workers(self, serve_process):
        """SIGKILL skips the supervisor's SIGTERM fan-out entirely, so
        the workers themselves must notice the parent death (PDEATHSIG
        on Linux, the ppid watchdog elsewhere) and drain — nothing may
        keep holding the shared socket."""
        server = serve_process(WORKER_ARGS)
        worker_pids = _collect_pids(server.port)
        assert len(worker_pids) >= 2

        server.proc.kill()
        server.proc.wait(timeout=10)

        deadline = time.monotonic() + 10.0
        alive = set(worker_pids)
        while time.monotonic() < deadline and alive:
            for pid in list(alive):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    alive.discard(pid)
            if alive:
                time.sleep(0.1)
        assert not alive, f"workers outlived the supervisor: {sorted(alive)}"


class TestJobsAcrossWorkers:
    def test_job_submitted_to_one_worker_is_pollable_via_any(
        self, serve_process, tmp_path
    ):
        """The directory-backed job store is the cross-worker contract:
        submit and poll ride separate fresh connections (hence, with two
        workers, frequently different processes) and still agree."""
        server = serve_process([*WORKER_ARGS, "--state-dir", str(tmp_path)])
        with ServeClient("127.0.0.1", server.port) as client:
            submitted = client.jobs.submit("negotiate", TINY_NEGOTIATE)
        assert submitted.state == "queued"
        with ServeClient("127.0.0.1", server.port) as client:
            final = client.jobs.wait(submitted.job_id, timeout=60.0)
        assert final.state == "done"
        expected = Session().negotiate(NegotiateRequest(**TINY_NEGOTIATE))
        assert final.result == expected.to_json_dict()
        # The job's crash-safe record is plain files under the state dir.
        job_dir = tmp_path / "jobs" / submitted.job_id
        assert (job_dir / "result.json").exists()
        assert server.terminate_and_wait() == 0

    def test_killing_the_claiming_worker_requeues_the_job(
        self, serve_process, tmp_path
    ):
        """A worker dying mid-job leaves a resumable record: the
        supervisor requeues the orphan and another worker finishes it."""
        server = serve_process(
            ["--workers", "2", "--state-dir", str(tmp_path)]
        )
        with ServeClient("127.0.0.1", server.port) as client:
            submitted = client.jobs.submit(
                "negotiate", {"num_choices": 64, "trials": 800, "seed": 9}
            )
            # Wait for a worker to claim it, then kill that worker.
            claimant = None
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                claim = tmp_path / "jobs" / submitted.job_id / "claim"
                try:
                    claimant = int(claim.read_text().strip())
                    break
                except (FileNotFoundError, ValueError):
                    time.sleep(0.02)
            assert claimant is not None, "no worker claimed the job within 30s"
            os.kill(claimant, signal.SIGKILL)
        # The submit connection may have been pinned to the dead worker;
        # poll on a fresh one.
        with ServeClient("127.0.0.1", server.port) as client:
            final = client.jobs.wait(submitted.job_id, timeout=90.0)
        assert final.state == "done"
        assert server.terminate_and_wait() == 0


class TestSingleWorkerPath:
    def test_workers_one_keeps_the_in_process_server(self, serve_process):
        """``--workers 1`` must not fork: the discovery line and drain
        behavior of the original single-process path are unchanged."""
        server = serve_process(["--workers", "1"])
        pids, _ = _pid_wave(server.port)
        assert pids == {server.proc.pid}
        assert server.terminate_and_wait() == 0

    def test_workers_zero_is_rejected(self):
        from repro.errors import ValidationError
        from repro.serve.server import ServeConfig

        with pytest.raises(ValidationError):
            ServeConfig(workers=0)


def test_session_cache_limit_bounds_the_worker_session():
    """Every worker builds its session from the config alone."""
    import asyncio

    from repro.core.caching import BoundedCache
    from repro.serve.server import ReproServer, ServeConfig

    server = ReproServer(ServeConfig(session_cache_limit=3))
    try:
        caches = [c for c in vars(server.session).values() if isinstance(c, BoundedCache)]
        assert caches
        assert {cache.max_entries for cache in caches} == {3}
    finally:
        asyncio.run(server.shutdown())

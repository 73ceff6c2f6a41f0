"""Benchmark: ``repro serve`` throughput under concurrent clients.

The serve subsystem's performance claims are measured against a real
child-process server on an ephemeral port, driven by N concurrent
keep-alive clients posting negotiation envelopes:

- **coalesced vs. uncoalesced** — the same workload against a default
  server, whose requests queue behind a running batch and share the
  next one, vs. ``--max-batch 1``, which solves every request alone
  (caching disabled on both, so only cross-client batching differs).
  The coalesced bodies must be byte-identical to the uncoalesced ones.
  At full (paper) scale — W=50, 8 clients × 25 trials per wave = the
  paper's 200 trials packed into one engine batch — the bench *asserts*
  the ≥ 2× throughput contract.
- **multi-worker vs. single-worker** — the identical uncoalesced
  workload against ``--workers 4``: four forked processes accepting on
  one shared socket, sidestepping the single process's GIL.  Responses
  must be byte-identical to the single-worker run at every scale; at
  full scale the bench *asserts* the ≥ 2× throughput contract.
- **cold vs. warm cache** — the same request set twice against a
  caching server: the repeat pass must be served from the
  fingerprint-keyed byte cache.
- **cross-worker shared cache** — a body computed by one worker of a
  ``--workers 2`` server is replayed by fresh concurrent clients; the
  merged ``/stats`` must show a ``disk_hits`` count ≥ 1 (a sibling
  worker served bytes it never computed, off the shared disk store).

Scales (``REPRO_BENCH_SCALE`` env var, or ``--paper-scale``): ``tiny``
(CI smoke), ``default``, ``full``.  The headline ``wall_time_s`` is the
coalesced run; every other measurement lands in ``extra`` of
``BENCH_serve.json``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from _emit import emit

from repro.serve.client import ServeClient

_SCALES = {
    # Small enough for CI, large enough that a request is real work.
    "tiny": dict(clients=4, waves=2, num_choices=10, trials=5),
    "default": dict(clients=8, waves=3, num_choices=30, trials=10),
    # Paper scale: one coalesced wave is W=50 with 8×25 = 200 trials,
    # the Fig. 2 full-scale trial count, in a single engine batch.
    "full": dict(clients=8, waves=4, num_choices=50, trials=25),
}

#: The contracted coalescing speedup, asserted at full scale only —
#: at smoke scales the fixed per-request overhead dominates the solve.
MIN_COALESCE_SPEEDUP = 2.0

#: The contracted ``--workers 4`` speedup over a single worker,
#: asserted at full scale on machines with >= 4 usable cores (process
#: parallelism cannot express itself on fewer — a 1-core container
#: time-slices the workers and the honest measurement is ~1.0x).  At
#: smoke scales a request is too cheap for parallelism to beat the
#: accept/dispatch overhead, so only byte-identity is asserted there.
MIN_WORKER_SPEEDUP = 2.0

#: On 2-3 cores some parallel speedup must still appear.
MIN_WORKER_SPEEDUP_FEW_CORES = 1.2

WORKERS = 4

_SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _scale_name(paper_scale: bool) -> str:
    env = os.environ.get("REPRO_BENCH_SCALE")
    if env:
        if env not in _SCALES:
            raise ValueError(
                f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {env!r}"
            )
        return env
    return "full" if paper_scale else "default"


class _Server:
    """One ``repro serve`` child bound to an ephemeral port."""

    def __init__(self, *args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.port = int(re.search(r":(\d+)", line).group(1))

    def __enter__(self) -> "_Server":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # SIGTERM, not SIGKILL: a multi-worker supervisor fans the
        # drain out to its forked workers (a SIGKILLed supervisor
        # cannot, and the workers would have to notice on their own).
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung drain
            self.proc.kill()
            self.proc.wait(timeout=30)


def _drive(
    port: int, scale: dict, *, seed_base: int
) -> tuple[float, dict[int, bytes]]:
    """Run the concurrent workload once; wall time plus body per seed."""
    bodies: dict[int, bytes] = {}

    def client_run(client_id: int) -> None:
        with ServeClient("127.0.0.1", port) as client:
            for wave in range(scale["waves"]):
                seed = seed_base + client_id * scale["waves"] + wave
                response = client.raw_post(
                    "/v1/negotiate",
                    {
                        "num_choices": scale["num_choices"],
                        "trials": scale["trials"],
                        "seed": seed,
                    },
                )
                assert response.status == 200, response.body
                bodies[seed] = response.body

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=scale["clients"]) as pool:
        list(pool.map(client_run, range(scale["clients"])))
    return time.perf_counter() - started, bodies


def _warm_up(port: int, scale: dict, *, workers: int = 1) -> None:
    """Pay first-request costs on every worker (concurrent fresh
    connections spread across the shared accept queue)."""

    def one(i: int) -> None:
        with ServeClient("127.0.0.1", port) as client:
            client.raw_post(
                "/v1/negotiate",
                {
                    "num_choices": scale["num_choices"],
                    "trials": scale["trials"],
                    "seed": 1 + i,
                },
            )

    count = max(scale["clients"], 2 * workers)
    with ThreadPoolExecutor(max_workers=count) as pool:
        list(pool.map(one, range(count)))


def _shared_cache_probe(scale: dict) -> tuple[float, int]:
    """Warm one body through one worker of a ``--workers 2`` server,
    replay it from fresh concurrent clients, and report the replay wall
    time plus the merged ``disk_hits`` count."""
    payload = {
        "num_choices": scale["num_choices"],
        "trials": scale["trials"],
        "seed": 777_777,
    }
    with _Server("--workers", "2", "--cache-entries", "256") as server:
        with ServeClient("127.0.0.1", server.port) as client:
            warm = client.raw_post("/v1/negotiate", payload)
            assert warm.status == 200, warm.body

        def replay(_: int) -> bytes:
            with ServeClient("127.0.0.1", server.port) as client:
                response = client.raw_post("/v1/negotiate", payload)
                assert response.status == 200, response.body
                return response.body

        disk_hits = 0
        replay_wall = 0.0
        # Fresh concurrent connections land on both workers of the
        # shared accept queue; a couple of waves makes the non-computing
        # worker's disk hit deterministic in practice.
        for _ in range(5):
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=scale["clients"]) as pool:
                bodies = set(pool.map(replay, range(scale["clients"])))
            replay_wall = time.perf_counter() - started
            assert bodies == {warm.body}, "replayed bytes diverged"
            with ServeClient("127.0.0.1", server.port) as client:
                disk_hits = client.stats()["result_cache"]["disk_hits"]
            if disk_hits >= 1:
                break
    return replay_wall, disk_hits


def test_serve_throughput(paper_scale):
    scale_name = _scale_name(paper_scale)
    scale = _SCALES[scale_name]
    requests_total = scale["clients"] * scale["waves"]

    # Coalescing comparison: identical workloads, caching off on both
    # sides so cross-client batching is the only variable.  The
    # uncoalesced single-worker run doubles as the multi-worker tier's
    # reference.
    with _Server("--max-batch", "1", "--cache-entries", "0") as server:
        _warm_up(server.port, scale)
        uncoalesced, single_bodies = _drive(server.port, scale, seed_base=1000)

    with _Server("--max-batch", "32", "--cache-entries", "0") as server:
        _warm_up(server.port, scale)
        coalesced, coalesced_bodies = _drive(server.port, scale, seed_base=1000)
        with ServeClient("127.0.0.1", server.port) as client:
            coalescing_stats = client.stats()["coalescing"]

    # Multi-worker comparison: the identical uncoalesced workload
    # against the pre-fork supervisor.
    with _Server(
        "--workers", str(WORKERS), "--max-batch", "1", "--cache-entries", "0",
    ) as server:
        _warm_up(server.port, scale, workers=WORKERS)
        multi_worker, multi_bodies = _drive(server.port, scale, seed_base=1000)

    # Cache comparison: the same seeds twice against a caching server.
    with _Server("--cache-entries", "256") as server:
        _warm_up(server.port, scale)
        cold_cache, _ = _drive(server.port, scale, seed_base=2000)
        warm_cache, _ = _drive(server.port, scale, seed_base=2000)

    shared_replay_wall, shared_disk_hits = _shared_cache_probe(scale)

    coalesce_speedup = (
        uncoalesced / coalesced if coalesced > 0.0 else float("inf")
    )
    worker_speedup = (
        uncoalesced / multi_worker if multi_worker > 0.0 else float("inf")
    )
    cache_speedup = cold_cache / warm_cache if warm_cache > 0.0 else float("inf")
    emit(
        "serve",
        wall_time_s=coalesced,
        operations=requests_total,
        scale={"name": scale_name, **scale},
        extra={
            "uncoalesced_wall_time_s": uncoalesced,
            "coalesce_speedup": coalesce_speedup,
            "multi_worker_wall_time_s": multi_worker,
            "worker_speedup": worker_speedup,
            "workers": WORKERS,
            "cores": len(os.sched_getaffinity(0)),
            "cold_cache_wall_time_s": cold_cache,
            "warm_cache_wall_time_s": warm_cache,
            "cache_speedup": cache_speedup,
            "shared_cache_replay_wall_time_s": shared_replay_wall,
            "shared_cache_disk_hits": shared_disk_hits,
            "max_batch_size": coalescing_stats["max_batch_size"],
        },
    )
    print(
        f"\n[{scale_name}] {requests_total} requests x {scale['clients']} "
        f"clients: uncoalesced {uncoalesced:.3f}s, coalesced {coalesced:.3f}s "
        f"({coalesce_speedup:.1f}x); {WORKERS} workers {multi_worker:.3f}s "
        f"({worker_speedup:.1f}x); cache cold {cold_cache:.3f}s, "
        f"warm {warm_cache:.3f}s ({cache_speedup:.1f}x); "
        f"shared-cache replay {shared_replay_wall:.3f}s "
        f"({shared_disk_hits} disk hits)"
    )

    # The run must have actually batched across clients, invisibly.
    assert coalescing_stats["max_batch_size"] > 1, coalescing_stats
    assert coalesced_bodies == single_bodies, (
        "coalesced responses diverged from the uncoalesced bytes"
    )
    # Any worker's answer is every worker's answer, bit for bit.
    assert multi_bodies == single_bodies, (
        "multi-worker responses diverged from the single-worker bytes"
    )
    # A sibling worker served bytes it never computed.
    assert shared_disk_hits >= 1, (
        f"no cross-worker disk hit after 5 replay waves: {shared_disk_hits}"
    )
    # Warm-cache replay must beat recomputing at every scale.
    assert cache_speedup > 1.0, (
        f"cached replay slower than recompute: {cache_speedup:.2f}x"
    )
    if scale_name == "full":
        assert coalesce_speedup >= MIN_COALESCE_SPEEDUP, (
            f"coalescing speedup regressed: {coalesce_speedup:.1f}x < "
            f"{MIN_COALESCE_SPEEDUP:.0f}x at paper scale"
        )
        cores = len(os.sched_getaffinity(0))
        if cores >= WORKERS:
            assert worker_speedup >= MIN_WORKER_SPEEDUP, (
                f"multi-worker speedup regressed: {worker_speedup:.1f}x < "
                f"{MIN_WORKER_SPEEDUP:.0f}x at paper scale on {cores} cores"
            )
        elif cores >= 2:
            assert worker_speedup >= MIN_WORKER_SPEEDUP_FEW_CORES, (
                f"multi-worker speedup regressed: {worker_speedup:.1f}x < "
                f"{MIN_WORKER_SPEEDUP_FEW_CORES}x at paper scale on "
                f"{cores} cores"
            )
        else:
            print(f"[{scale_name}] 1 usable core: worker-speedup gate skipped")

#!/usr/bin/env python3
"""CI smoke load for multi-worker ``repro serve``.

Boots a real ``--workers 2`` server on an ephemeral port, fires a
concurrent mixed workload at it through the typed
:class:`~repro.serve.client.ServeClient` — negotiation requests from
several client threads (exercising cross-client coalescing), the other
workflow routes, async job submissions polled to completion, and the
introspection routes, a bare unversioned path (404), a mistyped
request and a topology without tier-1 ASes (both 400) — then SIGKILLs
one worker mid-run and verifies
the survivors keep answering (byte-identically, off the shared disk
cache) while the supervisor forks a replacement.  Every response
envelope is written to ``--out`` as a ``.json`` file, the server is
SIGTERMed, and the drain is checked: exit code 0 and a request log of
complete JSONL lines.  The same tier-1-less topology must also be a
clean exit 2 from ``repro topology``.

CI then validates every written response (and the log records) with
``python -m repro.api.validate`` and uploads the request log as an
artifact::

    python scripts/serve_smoke.py --out serve-envelopes \
        --request-log serve-requests.jsonl

Exit codes: 0 on success, 1 on any failed request or an unclean drain.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import NegotiateRequest  # noqa: E402
from repro.api.validate import validate_envelope  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

#: Concurrent negotiation clients (>= the acceptance bar of 8).
CLIENTS = 8
WORKERS = 2

TINY_TOPOLOGY = {"tier1": 2, "tier2": 4, "tier3": 8, "stubs": 20, "seed": 1}
# A seed no load client uses: the warm body is computed by exactly one
# worker, so post-kill replays *must* come off the shared disk store.
WARM_NEGOTIATE = {"num_choices": 10, "trials": 5, "seed": 9999}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", required=True, help="directory for the response envelopes"
    )
    parser.add_argument(
        "--request-log",
        required=True,
        help="request log path handed to the server",
    )
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workers",
            str(WORKERS),
            "--request-log",
            args.request_log,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = server.stdout.readline()
    match = re.search(r"listening on http://[^:]+:(\d+)", line)
    if not match:
        print(f"error: serve did not start: {line!r}", file=sys.stderr)
        server.kill()
        return 1
    port = int(match.group(1))
    print(f"serve_smoke: server up on port {port} ({WORKERS} workers)")

    failures: list[str] = []

    with tempfile.TemporaryDirectory() as scratch:
        cli = subprocess.run(
            [sys.executable, "-m", "repro.cli", "topology", "t.txt", "--tier1", "0"],
            cwd=scratch,
            env=env,
            capture_output=True,
            text=True,
        )
    if cli.returncode != 2:
        failures.append(f"repro topology --tier1 0 exited {cli.returncode}, not 2")

    def save(name: str, response) -> None:
        if response.status != 200:
            failures.append(f"{name}: HTTP {response.status}: {response.body!r}")
            return
        (out_dir / f"{name}.json").write_bytes(response.body)

    def save_envelope(name: str, document: dict) -> None:
        (out_dir / f"{name}.json").write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def negotiate_client(client_id: int) -> None:
        with ServeClient("127.0.0.1", port) as client:
            for wave in range(2):
                seed = 100 + client_id * 2 + wave
                save(
                    f"negotiate_c{client_id}_w{wave}",
                    client.raw_post(
                        "/v1/negotiate",
                        {"num_choices": 10, "trials": 5, "seed": seed},
                    ),
                )

    def mixed_routes() -> None:
        with ServeClient("127.0.0.1", port) as client:
            save("health", client.raw_get("/v1/health"))
            save("topology", client.raw_post("/v1/topology", TINY_TOPOLOGY))
            save(
                "diversity",
                client.raw_post(
                    "/v1/diversity", {**TINY_TOPOLOGY, "sample_size": 5}
                ),
            )
            save(
                "simulate",
                client.raw_post(
                    "/v1/simulate", {"scenario": "failure-churn", "duration": 6}
                ),
            )
            # Only /v1 paths route: a bare path is a 404 error_result.
            bare = client.raw_get("/health")
            if bare.status != 404 or bare.json().get("kind") != "error_result":
                failures.append(f"bare /health answered {bare.status}, not 404")
            # A mistyped field is a clean 400 (exit code 2), never a 500.
            mistyped = client.raw_post("/v1/negotiate", {"num_choices": "abc"})
            error = mistyped.json()
            if mistyped.status != 400 or error.get("exit_code") != 2:
                failures.append(f"mistyped negotiate answered {mistyped.status}: {error}")
            # A topology needs a tier-1 AS: zero is bad input, not a 500.
            tierless = client.raw_post("/v1/topology", {"tier1": 0})
            error = tierless.json()
            if tierless.status != 400 or error.get("exit_code") != 2:
                failures.append(f"tier1=0 topology answered {tierless.status}: {error}")

    def job_client() -> None:
        with ServeClient("127.0.0.1", port) as client:
            submitted = client.jobs.submit(
                "negotiate", {"num_choices": 12, "trials": 8, "seed": 7}
            )
            save_envelope("job_submitted", submitted.to_json_dict())
            final = client.jobs.wait(submitted.job_id, timeout=120.0)
            save_envelope("job_final", final.to_json_dict())
            expected = NegotiateRequest(num_choices=12, trials=8, seed=7)
            if final.result != client.negotiate(expected).to_json_dict():
                failures.append("async job result differs from the sync route")

    try:
        # Concurrent mixed load: 8 negotiation clients queueing behind
        # each other's batches, the other routes, and an async job.
        with ThreadPoolExecutor(max_workers=CLIENTS + 2) as pool:
            workers = [
                pool.submit(negotiate_client, client_id)
                for client_id in range(CLIENTS)
            ]
            workers.append(pool.submit(mixed_routes))
            workers.append(pool.submit(job_client))
            for worker in workers:
                worker.result()

        # Warm one body through a known worker, SIGKILL that worker,
        # and demand the survivors replay the exact bytes at once.
        with ServeClient("127.0.0.1", port) as client:
            warm = client.raw_post("/v1/negotiate", WARM_NEGOTIATE)
            save("negotiate_repeat", warm)
            victim = warm.worker_pid
        if victim is None:
            failures.append("no X-Repro-Worker header on the warm response")
        else:
            print(f"serve_smoke: SIGKILLing worker {victim}")
            os.kill(victim, signal.SIGKILL)

            def replay(_: int) -> bytes:
                with ServeClient("127.0.0.1", port) as client:
                    response = client.raw_post("/v1/negotiate", WARM_NEGOTIATE)
                    if response.status != 200:
                        failures.append(
                            f"post-kill replay: HTTP {response.status}"
                        )
                    return response.body

            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                bodies = set(pool.map(replay, range(CLIENTS)))
            if bodies != {warm.body}:
                failures.append(
                    "post-kill replays were not byte-identical to the warm body"
                )
            # The supervisor restarts the victim within a few seconds.
            deadline = time.monotonic() + 15.0
            replaced = False
            while time.monotonic() < deadline and not replaced:
                with ServeClient("127.0.0.1", port) as client:
                    stats = client.stats()
                pids = {int(p) for p in stats["workers"]}
                replaced = len(pids - {victim}) >= WORKERS
                if not replaced:
                    time.sleep(0.25)
            if not replaced:
                failures.append("no replacement worker appeared within 15s")

        # After the load settles: merged /stats reports the totals.
        with ServeClient("127.0.0.1", port) as client:
            save("stats", client.raw_get("/v1/stats"))
    finally:
        server.send_signal(signal.SIGTERM)
        exit_code = server.wait(timeout=60)

    print(f"serve_smoke: drained with exit code {exit_code}")
    if exit_code != 0:
        failures.append(f"server exited {exit_code} on SIGTERM (expected 0)")

    log_path = Path(args.request_log)
    raw = log_path.read_bytes() if log_path.exists() else b""
    if not raw.endswith(b"\n"):
        failures.append("request log is empty or ends mid-line")
    records = []
    for number, line_text in enumerate(raw.decode("utf-8").splitlines(), 1):
        try:
            record = json.loads(line_text)
        except json.JSONDecodeError as error:
            failures.append(f"request log line {number} is not JSON: {error}")
            continue
        for problem in validate_envelope(record):
            failures.append(f"request log line {number}: {problem}")
        records.append(record)
    log_pids = {record.get("pid") for record in records}
    print(
        f"serve_smoke: {len(list(out_dir.glob('*.json')))} envelopes written, "
        f"{len(records)} log records from {len(log_pids)} workers"
    )
    if len(log_pids) < 2:
        failures.append(f"request log names fewer than 2 workers: {log_pids}")

    stats = json.loads((out_dir / "stats.json").read_bytes())
    coalescing = stats.get("coalescing", {})
    if coalescing.get("max_batch_size", 0) <= 1:
        failures.append(f"no cross-client coalescing happened: {coalescing}")
    cache = stats.get("result_cache", {})
    if cache.get("hits", 0) < 1:
        failures.append(f"no cache hit recorded: {cache}")
    if cache.get("disk_hits", 0) < 1:
        failures.append(f"no cross-worker disk hit recorded: {cache}")

    if failures:
        print("serve_smoke failures:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("serve_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

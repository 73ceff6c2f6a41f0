"""End-to-end contracts of the running server.

The two acceptance properties of the serve subsystem are pinned here
against a real child process:

1. **Coalescing is invisible in the results.** With a coalescing window
   open and ≥ 8 concurrent clients, every response body is byte-
   identical to what a sequential single-client run produces for the
   same request (the direct in-process session path — which the serve
   test suite separately pins equal to the one-at-a-time server).

2. **Shutdown is a drain.** SIGTERM with requests in flight exits 0,
   answers every accepted request, and leaves a request log of complete
   JSONL lines, every one a valid ``serve_log_record`` envelope.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

from repro.api import NegotiateRequest, Session
from repro.api.validate import validate_envelope
from repro.serve.client import ServeClient
from repro.serve.service import serialize_envelope

CLIENTS = 8
TINY = {"num_choices": 10, "trials": 5}


def post_negotiate(port: int, seed: int) -> bytes:
    with ServeClient("127.0.0.1", port) as client:
        response = client.raw_post("/v1/negotiate", {**TINY, "seed": seed})
        assert response.status == 200
        return response.body


class TestCoalescedByteIdentity:
    def test_concurrent_clients_match_the_sequential_path(self, serve_process):
        server = serve_process(
            ["--coalesce-window-ms", "50", "--max-batch", "32"]
        )
        seeds = list(range(100, 100 + CLIENTS))
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            bodies = list(
                pool.map(lambda seed: post_negotiate(server.port, seed), seeds)
            )

        # The sequential reference: one warm session, one request at a
        # time, serialized exactly like the CLI's --format json.
        session = Session()
        for seed, body in zip(seeds, bodies):
            expected = serialize_envelope(
                session.negotiate(
                    NegotiateRequest(seed=seed, **TINY)
                ).to_json_dict()
            )
            assert body == expected, f"seed {seed} diverged under coalescing"

        # The run must actually have coalesced — otherwise this test
        # proves nothing about cross-client batching.
        with ServeClient("127.0.0.1", server.port) as client:
            stats = client.raw_get("/v1/stats").json()
        assert validate_envelope(stats) == []
        assert stats["coalescing"]["max_batch_size"] > 1
        assert stats["coalescing"]["coalesced_requests"] > 1
        assert server.terminate_and_wait() == 0

    def test_coalesced_equals_one_at_a_time_server(self, serve_process):
        coalesced = serve_process(["--coalesce-window-ms", "50"])
        sequential = serve_process(["--coalesce-window-ms", "0"])
        seeds = list(range(200, 200 + CLIENTS))
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            concurrent_bodies = list(
                pool.map(
                    lambda seed: post_negotiate(coalesced.port, seed), seeds
                )
            )
        sequential_bodies = [
            post_negotiate(sequential.port, seed) for seed in seeds
        ]
        assert concurrent_bodies == sequential_bodies
        assert coalesced.terminate_and_wait() == 0
        assert sequential.terminate_and_wait() == 0


class TestMixedWorkloads:
    def test_every_route_answers_valid_envelopes(self, serve_process):
        server = serve_process([])
        with ServeClient("127.0.0.1", server.port) as client:
            responses = [
                client.raw_get("/v1/health"),
                client.raw_post(
                    "/v1/topology",
                    {"tier1": 2, "tier2": 3, "tier3": 4, "stubs": 8, "seed": 1},
                ),
                client.raw_post("/v1/negotiate", {**TINY, "seed": 5}),
                client.raw_post("/v1/simulate", {"scenario": "failure-churn"}),
                client.raw_get("/v1/stats"),
            ]
        for response in responses:
            assert response.status == 200
            assert validate_envelope(response.json()) == []
        assert server.terminate_and_wait() == 0


class TestGracefulDrain:
    def test_sigterm_drains_and_leaves_complete_log_lines(
        self, serve_process, tmp_path
    ):
        log_path = tmp_path / "requests.jsonl"
        server = serve_process(
            [
                "--coalesce-window-ms",
                "25",
                "--request-log",
                str(log_path),
            ]
        )
        # One synchronous request guarantees the log is non-empty even
        # if the signal wins every race below.
        post_negotiate(server.port, 299)

        def tolerant_post(seed: int) -> int | None:
            """Status code, or None when the socket already closed."""
            try:
                with ServeClient("127.0.0.1", server.port) as client:
                    return client.raw_post("/v1/negotiate", {**TINY, "seed": seed}).status
            except OSError:
                return None

        seeds = list(range(300, 300 + CLIENTS))
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            futures = [pool.submit(tolerant_post, seed) for seed in seeds]
            # SIGTERM while the batch window is plausibly still open:
            # the drain must answer every *accepted* request first.
            exit_code = server.terminate_and_wait()
            statuses = [future.result() for future in futures]

        assert exit_code == 0
        # Accepted requests completed (200) or were refused as draining
        # (503); refused connections surface as None.  Nothing hangs,
        # nothing is half-answered.
        assert set(statuses) <= {200, 503, None}
        raw = log_path.read_bytes()
        assert raw.endswith(b"\n"), "log must end on a line boundary"
        records = [
            json.loads(line) for line in raw.decode("utf-8").splitlines()
        ]
        assert records, "drained server must have logged its requests"
        for record in records:
            assert validate_envelope(record) == []
            assert record["status"] in (200, 503)

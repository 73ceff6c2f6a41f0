"""Seeded workload inputs and the closed-loop HTTP load generator.

Everything the program under test receives is generated here from the
benchmark's ``--seed``: the same seed gives the same request sequence,
another seed gives another one.
"""

from __future__ import annotations

import bisect
import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "DIVERSITY_SAMPLE_SIZES",
    "DIVERSITY_TOPOLOGY",
    "Exchange",
    "ServeRequest",
    "diversity_pass",
    "diversity_setup",
    "fetch",
    "run_closed_loop",
    "serve_sequence",
]

#: One ``negotiate`` request of the serve mix, minus its seed.
NEGOTIATE = {"distribution": "u1", "num_choices": 20, "trials": 10}
#: One ``simulate`` request of the serve mix, minus its seed.
SIMULATE = {"scenario": "marketplace", "duration": 168.0}
#: Seconds a serve request may take before it counts as failed.
REPLY_TIMEOUT_S = 60.0
#: Kinds of one block of ten serve requests (shuffled per block).
SERVE_BLOCK = ("negotiate",) * 7 + ("repeat",) * 2 + ("simulate",)

#: Tier sizes and generator seed of the diversity-warm topology.  The
#: topology is fixed so that every run does the same set-up work; the
#: benchmark seed only chooses which ASes the requests sample.
DIVERSITY_TOPOLOGY = {"tier1": 8, "tier2": 40, "tier3": 120, "stubs": 400, "seed": 7}
#: ``sample_size`` of the requests of one diversity-warm pass.
DIVERSITY_SAMPLE_SIZES = (120, 180, 240, 300)


@dataclass(frozen=True)
class ServeRequest:
    """One request of the serve mix; ``repeat_of`` names the original."""

    index: int
    workflow: str
    payload: dict[str, Any] = field(hash=False)
    repeat_of: int | None = None

    @property
    def path(self) -> str:
        return f"/v1/{self.workflow}"

    def body(self) -> bytes:
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")


def _fresh_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31 - 1)


def serve_sequence(seed: int, count: int) -> list[ServeRequest]:
    """The first ``count`` requests of the serve mix for ``seed``.

    Every block of ten holds seven fresh-seed ``negotiate`` requests,
    two repeats of earlier requests and one fresh-seed ``simulate``.  A
    repeat copies a request at least three places earlier, so with two
    connections its original has normally been answered and it is a
    cache hit.
    """
    rng = random.Random(seed)
    sequence: list[ServeRequest] = []
    originals: list[int] = []
    while len(sequence) < count:
        kinds = list(SERVE_BLOCK)
        rng.shuffle(kinds)
        if not sequence:
            # The first block has nothing to repeat yet: its repeats go last.
            kinds = [k for k in kinds if k != "repeat"] + ["repeat", "repeat"]
        for kind in kinds:
            index = len(sequence)
            if kind == "repeat":
                eligible = bisect.bisect_right(originals, index - 3)
                original = sequence[originals[rng.randrange(eligible)]]
                sequence.append(
                    ServeRequest(index, original.workflow, original.payload, original.index)
                )
                continue
            template = NEGOTIATE if kind == "negotiate" else SIMULATE
            payload = {**template, "seed": _fresh_seed(rng)}
            sequence.append(ServeRequest(index, kind, payload))
            originals.append(index)
    return sequence[:count]


def diversity_setup(seed: int) -> dict[str, int]:
    """The ``DiversityRequest`` fields of the diversity-warm set-up call."""
    return {
        "sample_size": DIVERSITY_SAMPLE_SIZES[0],
        "seed": random.Random(seed).randrange(1, 2**31 - 1),
    }


def diversity_pass(seed: int, number: int) -> list[dict[str, int]]:
    """The ``DiversityRequest`` fields of pass ``number`` of diversity-warm.

    Every request samples its ASes with its own seed: how much work a
    sample is depends on which ASes it draws, and fresh draws in every
    pass keep one heavy or light sample from setting a whole run.  The
    topology file stays the same, so no request rebuilds the MA index.
    """
    rng = random.Random(f"{seed}/{number}")
    return [
        {"sample_size": size, "seed": rng.randrange(1, 2**31 - 1)}
        for size in DIVERSITY_SAMPLE_SIZES
    ]


@dataclass
class Exchange:
    """One request sent by the load generator and what came back."""

    request: ServeRequest
    sent: float
    received: float = 0.0
    status: int = 0
    body: bytes = b""
    #: The original had been answered before this repeat was sent.
    expected_hit: bool = False
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1000.0


def fetch(host: str, port: int, path: str) -> tuple[int, bytes]:
    """One GET on a fresh connection."""
    connection = http.client.HTTPConnection(host, port, timeout=5.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def run_closed_loop(
    host: str,
    port: int,
    sequence: list[ServeRequest],
    *,
    connections: int,
    seconds: float,
) -> tuple[list[Exchange], float, float]:
    """Send ``sequence`` in order over keep-alive connections, closed loop.

    Each connection sends its next request only after the previous reply
    arrived; the connections share one position in the sequence.  No new
    request is sent once ``seconds`` have passed.  Returns the exchanges
    in sequence order and the clock readings at start and at the last
    reply.
    """
    lock = threading.Lock()
    exchanges: list[Exchange] = []
    answered: set[int] = set()
    position = [0]
    start = time.perf_counter()

    def next_exchange() -> Exchange | None:
        with lock:
            now = time.perf_counter()
            if now - start >= seconds or position[0] >= len(sequence):
                return None
            request = sequence[position[0]]
            position[0] += 1
            exchange = Exchange(
                request,
                sent=now,
                expected_hit=request.repeat_of is not None and request.repeat_of in answered,
            )
            exchanges.append(exchange)
            return exchange

    def client() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=REPLY_TIMEOUT_S)
        try:
            while (exchange := next_exchange()) is not None:
                request = exchange.request
                try:
                    connection.request(
                        "POST",
                        request.path,
                        body=request.body(),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    exchange.body = response.read()
                    exchange.status = response.status
                except (OSError, http.client.HTTPException) as error:
                    exchange.error = f"{type(error).__name__}: {error}"
                    connection.close()
                    connection = http.client.HTTPConnection(host, port, timeout=REPLY_TIMEOUT_S)
                exchange.received = time.perf_counter()
                with lock:
                    answered.add(request.index)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{i}")
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((e.received for e in exchanges), default=start)
    exchanges.sort(key=lambda e: e.request.index)
    return exchanges, start, end

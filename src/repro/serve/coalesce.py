"""Cross-client batch coalescing for negotiation requests.

The scheduler is the reason ``repro serve`` exists as a *service*
rather than a CLI-per-request: negotiation requests that arrive while
the server is busy are packed into **one**
:meth:`~repro.api.session.Session.negotiate_many` call, which solves
every client's trials in a single vectorized
:class:`~repro.bargaining.engine.GameBatch` instead of one small batch
per client.  Requests group by
:meth:`~repro.api.requests.NegotiateRequest.coalesce_key` (distribution
name + choice-set cardinality) — the only parameters
:meth:`~repro.bargaining.engine.GameBatch.from_choice_sets` requires a
batch to share.

Batching follows **occupancy**, not a timer.  A request whose key has
no batch running is solved at once; requests that arrive while a batch
of their key is solving queue up and form the next batch, in arrival
order, cut at ``max_batch``.  A lone client therefore never waits for
company, and under load the batches grow by themselves.

**Coalescing never changes results.** Each request's trials are drawn
from its own seeded RNG regardless of batchmates, and the engine's
kernels are row-independent, so a coalesced response is bit-identical
to the response the same request gets alone (pinned by the serve test
suite).  If a *mixed* batch fails, every member is retried solo so one
poison request cannot fail its batchmates — and the solo retry is the
sequential path, so isolation costs no correctness.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable, Sequence

from repro.api.requests import NegotiateRequest
from repro.api.results import NegotiateResult

__all__ = ["CoalescingScheduler"]

#: ``solve`` signature: a packed cohort in, one result per request out.
Solver = Callable[[Sequence[NegotiateRequest]], Awaitable[list[NegotiateResult]]]

_Entry = tuple[NegotiateRequest, asyncio.Future]


class CoalescingScheduler:
    """Packs concurrent negotiation requests into shared engine batches.

    Each busy coalesce key has one queue and one task that solves the
    queue's head, ``max_batch`` requests at a time, until the queue is
    empty.  ``max_batch=1`` therefore solves every request alone (the
    sequential path), which is also the baseline the byte-identity
    tests and the serve benchmark compare against.
    """

    def __init__(self, *, max_batch: int, solve: Solver) -> None:
        self.max_batch = max_batch
        self._solve = solve
        self._queues: dict[tuple[str, int], list[_Entry]] = {}
        self._inflight: set[asyncio.Task] = set()
        self._requests_total = 0
        self._batches_total = 0
        self._coalesced_requests = 0
        self._max_batch_size = 0
        self._solo_retries = 0

    async def submit(self, request: NegotiateRequest) -> tuple[NegotiateResult, int]:
        """Schedule one request; returns ``(result, batch_size)``.

        ``batch_size`` is how many requests shared the engine batch that
        produced this result (1 when nobody else was queued with it) —
        the request log records it.
        """
        self._requests_total += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        key = request.coalesce_key()
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = []
            task = loop.create_task(self._run_queue(key, queue))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        queue.append((request, future))
        return await future

    async def _run_queue(self, key: tuple[str, int], queue: list[_Entry]) -> None:
        """Solve one key's queue batch by batch until nothing waits."""
        try:
            while queue:
                batch = queue[: self.max_batch]
                del queue[: self.max_batch]
                await self._run_batch(batch)
        finally:
            del self._queues[key]

    async def _run_batch(self, entries: list[_Entry]) -> None:
        requests = [request for request, _ in entries]
        size = len(requests)
        try:
            results = await self._run_solve(requests)
        except Exception as error:
            if size == 1:
                self._resolve(entries[0][1], error=error)
                return
            # Isolate the poison request: the solo path is the
            # sequential path, so healthy batchmates lose nothing.
            for request, future in entries:
                self._solo_retries += 1
                try:
                    solo = await self._run_solve([request])
                except Exception as solo_error:
                    self._resolve(future, error=solo_error)
                else:
                    self._resolve(future, result=(solo[0], 1))
            return
        for (_, future), result in zip(entries, results):
            self._resolve(future, result=(result, size))

    async def _run_solve(
        self, requests: Sequence[NegotiateRequest]
    ) -> list[NegotiateResult]:
        self._batches_total += 1
        size = len(requests)
        self._max_batch_size = max(self._max_batch_size, size)
        if size > 1:
            self._coalesced_requests += size
        return await self._solve(requests)

    @staticmethod
    def _resolve(
        future: asyncio.Future, *, result=None, error: Exception | None = None
    ) -> None:
        """Deliver to a waiter unless it already went away (disconnect)."""
        if future.done():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    async def drain(self) -> None:
        """Wait until every queued and running batch has been solved."""
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def stats(self) -> dict[str, int]:
        """Counters for ``/stats``: how much coalescing actually happened."""
        return {
            "max_batch": self.max_batch,
            "requests": self._requests_total,
            "batches": self._batches_total,
            "coalesced_requests": self._coalesced_requests,
            "max_batch_size": self._max_batch_size,
            "solo_retries": self._solo_retries,
        }

"""Coalescing scheduler: occupancy batching, isolation, drain.

These tests drive the scheduler with an instrumented fake solver, so
they pin the *scheduling* contract (what gets batched with what, and
when) independently of the engine.  The solver can be held on an
:class:`asyncio.Event`, which keeps a batch "running" for exactly as
long as a test needs: no timing, no sleeps.  The result-level contract
— that a coalesced batch is bit-identical to the sequential path — is
pinned end-to-end in ``test_server_integration.py`` and at the session
layer in ``tests/api/test_session.py``.
"""

import asyncio

import pytest

from repro.api.requests import NegotiateRequest
from repro.errors import ServiceError
from repro.serve.coalesce import CoalescingScheduler


class RecordingSolver:
    """Fake solve(): records each batch, returns one token per request.

    While ``gate`` is set to an unset :class:`asyncio.Event`, every
    batch blocks after being recorded until the event is set.
    """

    def __init__(self, fail_on=None):
        self.batches = []
        self.fail_on = fail_on or set()
        self.gate = None

    async def __call__(self, requests):
        self.batches.append([r.seed for r in requests])
        if self.gate is not None:
            await self.gate.wait()
        failing = [r for r in requests if r.seed in self.fail_on]
        if failing:
            raise ServiceError(f"poison seed {failing[0].seed}")
        return [("solved", r.seed) for r in requests]


def request(seed, num_choices=10):
    return NegotiateRequest(num_choices=num_choices, trials=5, seed=seed)


async def settle():
    """Let every ready task run until the loop has nothing left to do."""
    for _ in range(10):
        await asyncio.sleep(0)


def submit_all(scheduler, seeds):
    return [asyncio.ensure_future(scheduler.submit(request(seed))) for seed in seeds]


class TestGrouping:
    def test_idle_key_is_dispatched_without_waiting(self):
        solver = RecordingSolver()

        async def run():
            solver.gate = asyncio.Event()
            scheduler = CoalescingScheduler(max_batch=32, solve=solver)
            (waiter,) = submit_all(scheduler, [3])
            await settle()
            # The batch is already in the solver: nothing waited for
            # company.
            assert solver.batches == [[3]]
            solver.gate.set()
            return await waiter

        assert asyncio.run(run()) == (("solved", 3), 1)

    def test_concurrent_requests_share_one_batch(self):
        solver = RecordingSolver()

        async def run():
            solver.gate = asyncio.Event()
            scheduler = CoalescingScheduler(max_batch=32, solve=solver)
            first = submit_all(scheduler, [0])
            await settle()
            assert solver.batches == [[0]]
            # These arrive while batch 1 is solving: they queue, in
            # arrival order, and form batch 2 together.
            queued = submit_all(scheduler, [3, 1, 2, 4])
            await settle()
            assert solver.batches == [[0]]
            solver.gate.set()
            return await asyncio.gather(*first, *queued)

        results = asyncio.run(run())
        assert solver.batches == [[0], [3, 1, 2, 4]]
        # Every waiter got its own result and its batch's size.
        assert results == [(("solved", 0), 1)] + [
            (("solved", seed), 4) for seed in (3, 1, 2, 4)
        ]

    def test_different_coalesce_keys_never_mix(self):
        solver = RecordingSolver()

        async def run():
            scheduler = CoalescingScheduler(max_batch=32, solve=solver)
            return await asyncio.gather(
                scheduler.submit(request(1, num_choices=10)),
                scheduler.submit(request(2, num_choices=20)),
            )

        results = asyncio.run(run())
        assert sorted(solver.batches) == [[1], [2]]
        assert all(size == 1 for _, size in results)

    def test_different_keys_do_not_wait_for_each_other(self):
        solver = RecordingSolver()

        async def run():
            solver.gate = asyncio.Event()
            scheduler = CoalescingScheduler(max_batch=32, solve=solver)
            waiters = [
                asyncio.ensure_future(scheduler.submit(request(1, num_choices=10))),
                asyncio.ensure_future(scheduler.submit(request(2, num_choices=20))),
            ]
            await settle()
            # A busy key never holds back an idle one.
            assert sorted(solver.batches) == [[1], [2]]
            solver.gate.set()
            return await asyncio.gather(*waiters)

        assert asyncio.run(run()) == [(("solved", 1), 1), (("solved", 2), 1)]

    def test_max_batch_flushes_early(self):
        solver = RecordingSolver()

        async def run():
            solver.gate = asyncio.Event()
            scheduler = CoalescingScheduler(max_batch=2, solve=solver)
            waiters = submit_all(scheduler, [0])
            await settle()
            # Five requests queue behind batch 1; max_batch cuts them
            # into chunks, solved one after another in arrival order.
            waiters += submit_all(scheduler, [1, 2, 3, 4, 5])
            await settle()
            solver.gate.set()
            return await asyncio.gather(*waiters)

        results = asyncio.run(run())
        assert solver.batches == [[0], [1, 2], [3, 4], [5]]
        assert [size for _, size in results] == [1, 2, 2, 2, 2, 1]

    def test_max_batch_one_solves_each_request_alone(self):
        solver = RecordingSolver()

        async def run():
            solver.gate = asyncio.Event()
            scheduler = CoalescingScheduler(max_batch=1, solve=solver)
            waiters = submit_all(scheduler, [0])
            await settle()
            waiters += submit_all(scheduler, [1, 2])
            await settle()
            solver.gate.set()
            results = await asyncio.gather(*waiters)
            return results, scheduler.stats()

        results, stats = asyncio.run(run())
        assert solver.batches == [[0], [1], [2]]
        assert all(size == 1 for _, size in results)
        assert stats["coalesced_requests"] == 0
        assert stats["max_batch_size"] == 1
        assert stats["batches"] == stats["requests"] == 3


class TestFailureIsolation:
    def test_solo_failure_propagates(self):
        solver = RecordingSolver(fail_on={7})

        async def run():
            scheduler = CoalescingScheduler(max_batch=32, solve=solver)
            await scheduler.submit(request(7))

        with pytest.raises(ServiceError, match="poison seed 7"):
            asyncio.run(run())

    def test_poison_request_cannot_fail_batchmates(self):
        solver = RecordingSolver(fail_on={7})

        async def run():
            solver.gate = asyncio.Event()
            scheduler = CoalescingScheduler(max_batch=32, solve=solver)
            first = submit_all(scheduler, [0])
            await settle()
            queued = submit_all(scheduler, [1, 7, 2])
            await settle()
            solver.gate.set()
            return await asyncio.gather(*first, *queued, return_exceptions=True)

        _, healthy_one, poisoned, healthy_two = asyncio.run(run())
        # The mixed batch failed, so every member re-ran solo: the
        # healthy requests still succeed (batch_size 1, the sequential
        # path), only the poison request surfaces its error.
        assert healthy_one == (("solved", 1), 1)
        assert healthy_two == (("solved", 2), 1)
        assert isinstance(poisoned, ServiceError)
        assert solver.batches == [[0], [1, 7, 2], [1], [7], [2]]

    def test_stats_count_retries(self):
        solver = RecordingSolver(fail_on={7})

        async def run():
            solver.gate = asyncio.Event()
            scheduler = CoalescingScheduler(max_batch=32, solve=solver)
            first = submit_all(scheduler, [0])
            await settle()
            queued = submit_all(scheduler, [1, 7])
            await settle()
            solver.gate.set()
            await asyncio.gather(*first, *queued, return_exceptions=True)
            return scheduler.stats()

        stats = asyncio.run(run())
        assert stats["requests"] == 3
        assert stats["batches"] == 4
        assert stats["solo_retries"] == 2
        assert stats["coalesced_requests"] == 2
        assert stats["max_batch_size"] == 2


class TestDrain:
    def test_drain_waits_for_queued_and_running_batches(self):
        solver = RecordingSolver()

        async def run():
            solver.gate = asyncio.Event()
            scheduler = CoalescingScheduler(max_batch=32, solve=solver)
            waiters = submit_all(scheduler, [5])
            await settle()
            waiters += submit_all(scheduler, [6, 8])
            await settle()
            drain = asyncio.ensure_future(scheduler.drain())
            await settle()
            # Batch 1 is still held, so the drain cannot be done.
            assert not drain.done()
            solver.gate.set()
            await drain
            # The drain returned only after the queued batch ran too.
            assert all(waiter.done() for waiter in waiters)
            return [waiter.result() for waiter in waiters]

        results = asyncio.run(run())
        assert results == [(("solved", 5), 1), (("solved", 6), 2), (("solved", 8), 2)]
        assert solver.batches == [[5], [6, 8]]

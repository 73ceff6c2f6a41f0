"""Tests for the agreement lifecycle process."""

import pytest

from repro.simulation import (
    AgreementLifecycleManager,
    DynamicNetwork,
    SimulationEngine,
)
from repro.topology import figure1_topology
from repro.topology.fixtures import AS_D, AS_E


def run_manager(*, seed=0, until=30.0, term=12.0, fail_link=False, **overrides):
    engine = SimulationEngine()
    network = DynamicNetwork(figure1_topology())
    if fail_link:
        network.fail_link(AS_D, AS_E)
    manager = AgreementLifecycleManager(
        network=network,
        pairs=((AS_D, AS_E),),
        term_duration=term,
        metering_interval=1.0,
        retry_delay=5.0,
        seed=seed,
        **overrides,
    )
    engine.add_process(manager)
    trace = engine.run(until=until)
    return engine, manager, trace


class TestLifecycle:
    def test_full_cycle_negotiate_activate_meter_bill_expire(self):
        _, manager, trace = run_manager(until=13.0, term=12.0)
        assert [r.kind for r in trace.records[:2]] == [
            "bosco_configured",
            "negotiation",
        ]
        assert len(trace.of_kind("agreement_activated")) >= 1
        billing = trace.of_kind("billing")
        assert len(billing) == 1
        # One metering sample per interval over the whole term.
        assert billing[0].data["samples"] == 12
        assert billing[0].data["billed_volume_x"] > 0.0
        assert len(trace.of_kind("agreement_expired")) == 1

    def test_expiry_triggers_renegotiation(self):
        _, manager, trace = run_manager(until=30.0, term=12.0)
        negotiations = trace.of_kind("negotiation")
        assert len(negotiations) >= 2
        assert manager.billed_terms >= 2
        # The renegotiated term starts right at the previous expiry.
        activations = trace.of_kind("agreement_activated")
        expiries = trace.of_kind("agreement_expired")
        assert activations[1].time == expiries[0].time

    def test_billing_reports_both_parties(self):
        _, _, trace = run_manager(until=13.0, term=12.0)
        record = trace.of_kind("billing")[0]
        assert f"revenue_{AS_D}" in record.data
        assert f"revenue_{AS_E}" in record.data
        assert f"utility_{AS_D}" in record.data
        assert f"utility_{AS_E}" in record.data
        revenue = trace.revenue_by_as()
        assert set(revenue) == {AS_D, AS_E}

    def test_down_peering_link_skips_negotiation(self):
        _, manager, trace = run_manager(until=4.0, fail_link=True)
        assert len(trace.of_kind("negotiation_skipped")) == 1
        assert manager.concluded == 0
        assert not trace.of_kind("agreement_activated")

    def test_retry_after_skip(self):
        _, manager, trace = run_manager(until=11.0, fail_link=True)
        # retry_delay=5.0: skipped at t=0, 5, 10.
        assert len(trace.of_kind("negotiation_skipped")) == 3

    def test_metering_pauses_while_the_link_is_down(self):
        engine, manager, trace = run_manager(until=5.0, term=12.0)
        active = manager.active_agreements()[0]
        before = sum(active.samples[AS_D])
        assert before > 0.0
        manager.network.fail_link(AS_D, AS_E, time=engine.now)
        engine.run(until=10.0)
        # All samples taken while the link was down are zero.
        assert sum(active.samples[AS_D]) == pytest.approx(before)

    def test_same_seed_reproduces_the_trace(self):
        _, _, trace_a = run_manager(seed=11, until=30.0)
        _, _, trace_b = run_manager(seed=11, until=30.0)
        assert trace_a.to_jsonl() == trace_b.to_jsonl()

    def test_different_seed_changes_the_trace(self):
        _, _, trace_a = run_manager(seed=11, until=30.0)
        _, _, trace_b = run_manager(seed=12, until=30.0)
        assert trace_a.to_jsonl() != trace_b.to_jsonl()


class TestBatchedNegotiationEpochs:
    """Pairs due at the same virtual instant share one engine call."""

    def build_started_manager(self, pairs=((AS_D, AS_E),), until=0.0):
        engine = SimulationEngine()
        network = DynamicNetwork(figure1_topology())
        manager = AgreementLifecycleManager(
            network=network,
            pairs=pairs,
            term_duration=12.0,
            metering_interval=1.0,
            retry_delay=5.0,
            seed=0,
        )
        engine.add_process(manager)
        engine.run(until=until)
        return engine, manager

    def test_same_due_time_requests_share_one_flush_event(self):
        from repro.topology.fixtures import AS_C, AS_F

        engine, manager = self.build_started_manager(until=0.0)
        # Two further peering pairs with downed links, due at the same
        # instant: one bucket, one flush, two skip records in request
        # order.
        manager.network.fail_link(AS_C, AS_D, time=engine.now)
        manager.network.fail_link(AS_E, AS_F, time=engine.now)
        manager._request_negotiation((AS_C, AS_D), 2.0)
        manager._request_negotiation((AS_E, AS_F), 2.0)
        assert list(manager._due[engine.now + 2.0]) == [(AS_C, AS_D), (AS_E, AS_F)]
        processed_before = engine.events_processed
        trace = engine.run(until=3.0)
        skipped = [r for r in trace.records if r.kind == "negotiation_skipped"]
        assert [r.data["pair"] for r in skipped] == [[AS_C, AS_D], [AS_E, AS_F]]
        assert skipped[0].time == skipped[1].time == 2.0
        assert engine.events_processed > processed_before
        # The shared bucket is drained by its single flush event.
        assert not manager._due.get(2.0)

    def test_retry_after_flush_opens_a_fresh_bucket(self):
        from repro.topology.fixtures import AS_C

        engine, manager = self.build_started_manager(until=0.0)
        manager.network.fail_link(AS_C, AS_D, time=engine.now)
        manager._request_negotiation((AS_C, AS_D), 2.0)
        trace = engine.run(until=8.0)
        # The skipped pair retries retry_delay after the flush, through
        # a new bucket at t=7.
        skipped = [r for r in trace.records if r.kind == "negotiation_skipped"]
        assert [r.time for r in skipped] == [2.0, 7.0]

    def test_batched_trace_is_reproducible(self):
        _, _, trace_a = run_manager(seed=3, until=40.0)
        _, _, trace_b = run_manager(seed=3, until=40.0)
        assert trace_a.to_jsonl() == trace_b.to_jsonl()

    def test_retry_joining_a_pending_bucket_keeps_request_order(self):
        """Regression: the delicate same-instant interleaving case.

        Pair (C, D) has a failed link and retries every 24h; pair
        (E, F) is staggered to its first negotiation at t=24.  The
        retry request (made at t=0, due t=24) joins (E, F)'s
        still-pending initial bucket, so both are decided by one flush
        — and the records must appear in request order ((E, F) was
        requested first, at start), with (C, D)'s expiry-driven
        rhythm undisturbed.  Verified byte-identical against the
        pre-refactor per-pair event formulation at the time of the
        refactor.
        """
        from repro.topology.fixtures import AS_C, AS_F

        engine = SimulationEngine()
        network = DynamicNetwork(figure1_topology())
        network.fail_link(AS_C, AS_D)
        manager = AgreementLifecycleManager(
            network=network,
            pairs=((AS_C, AS_D), (AS_E, AS_F)),
            term_duration=48.0,
            metering_interval=24.0,
            retry_delay=24.0,
            seed=0,
        )
        engine.add_process(manager)
        trace = engine.run(until=100.0)
        at_24 = [
            (r.kind, r.data.get("pair"))
            for r in trace.records
            if r.time == 24.0 and r.kind.startswith("negotiation")
        ]
        assert at_24 == [
            ("negotiation", [AS_E, AS_F]),
            ("negotiation_skipped", [AS_C, AS_D]),
        ]
        # The skipping pair keeps retrying on its 24h grid.
        skipped_times = [r.time for r in trace.of_kind("negotiation_skipped")]
        assert skipped_times == [0.0, 24.0, 48.0, 72.0, 96.0]

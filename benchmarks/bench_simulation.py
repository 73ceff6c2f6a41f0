"""Benchmark: the discrete-event simulation engine.

Two angles: raw kernel throughput (events/sec through the queue and
clock with a no-op action) and the end-to-end failure-churn scenario
(whose events carry BGP reconvergence and beaconing work).  The printed
events/sec figure is the headline number for the engine.
"""

from __future__ import annotations

from repro.simulation import FailureChurnScenario, SimulationEngine


def test_event_kernel_throughput(benchmark):
    """Raw engine throughput: schedule-and-run 50k no-op events."""
    num_events = 50_000

    def pump() -> int:
        engine = SimulationEngine()
        for index in range(num_events):
            engine.schedule_at(float(index % 97), lambda: None)
        engine.run(until=100.0)
        return engine.events_processed

    processed = benchmark(pump)
    assert processed == num_events

    rate = processed / benchmark.stats["mean"]
    print()
    print("== simulation kernel throughput ==")
    print(f"events processed: {processed}")
    print(f"events/sec (no-op actions): {rate:,.0f}")


def test_failure_churn_scenario(benchmark, run_once):
    """End-to-end failure-churn scenario: real routing work per event."""
    scenario = FailureChurnScenario(duration=48.0)
    result = run_once(scenario.run)

    rate = result.events_processed / benchmark.stats["mean"]
    print()
    print("== failure-churn scenario ==")
    print(f"events processed: {result.events_processed}")
    print(f"trace records: {len(result.trace)}")
    print(f"events/sec (incl. BGP + beaconing work): {rate:,.0f}")
    print(f"BGP availability: {result.trace.availability('BGP'):.4f}")
    print(f"PAN availability: {result.trace.availability('PAN'):.4f}")

    assert result.trace.availability("PAN") >= result.trace.availability("BGP")

#!/usr/bin/env python3
"""Discrete-event simulation of dynamic networks and agreement lifecycles.

The static analyses elsewhere in this repository answer *whether* a
configuration is stable or an agreement is beneficial; the simulation
engine answers how the system behaves *over time*:

1. ``failure-churn`` — links fail and recover on a seeded schedule.
   BGP pairs go dark while reconvergence is pending; PAN sources fail
   over instantly among the paths discovered by periodic beaconing.
2. ``marketplace`` — mutuality agreements are BOSCO-negotiated,
   metered under diurnal traffic, billed at term end, and renegotiated.
3. ``flash-crowd`` — a demand spike hits the Fig. 1 D–E agreement and
   inflates its 95th-percentile bill far beyond the mean demand.

Run with::

    python examples/dynamic_network_simulation.py
"""

from __future__ import annotations

from repro.simulation import (
    DeterministicFailureSchedule,
    DynamicNetwork,
    FailureInjector,
    SimulationEngine,
    run_scenario,
)
from repro.topology import AS_D, AS_E, figure1_topology


def canned_scenarios() -> None:
    """Run the three canned scenarios and print their summaries."""
    for name in ("failure-churn", "marketplace", "flash-crowd"):
        result = run_scenario(name)
        print(result.summary())
        print()


def custom_schedule() -> None:
    """A hand-built simulation: fail and restore one Fig. 1 link."""
    print("== custom run: the Fig. 1 D-E peering link flaps ==")
    engine = SimulationEngine()
    network = DynamicNetwork(figure1_topology())
    schedule = DeterministicFailureSchedule.of(
        (2.0, "down", AS_D, AS_E),
        (5.0, "up", AS_D, AS_E),
    )
    engine.add_process(
        FailureInjector(network=network, schedule=schedule, horizon=10.0)
    )
    engine.run(until=10.0)
    for record in engine.trace.records:
        print(f"  t={record.time:4.1f}  {record.kind}  {record.data}")
    print()


def main() -> None:
    canned_scenarios()
    custom_schedule()


if __name__ == "__main__":
    main()

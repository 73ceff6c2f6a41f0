"""Discrete-event simulation of dynamic networks and agreement lifecycles.

The engine gives the library's one-shot layers a time axis: one heap of
``(time, priority, sequence, action)`` tuples over a virtual clock
(:mod:`~repro.simulation.engine`), a dynamic topology with failing and
recovering links (:mod:`~repro.simulation.network`,
:mod:`~repro.simulation.failures`), periodic SCION-style beaconing and
BGP reconvergence (:mod:`~repro.simulation.routing`), time-varying
traffic demand (:mod:`~repro.simulation.traffic`), agreement lifecycles
from negotiation to billing (:mod:`~repro.simulation.lifecycle`), and a
deterministic metrics trace (:mod:`~repro.simulation.metrics`).  Canned
scenarios live in :mod:`~repro.simulation.scenarios` and behind the
``repro simulate`` CLI subcommand.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.simulation.engine": ("Process", "SimulationEngine", "SimulationError"),
        "repro.simulation.failures": (
            "LINK_DOWN",
            "LINK_UP",
            "DeterministicFailureSchedule",
            "FailureInjector",
            "LinkEvent",
            "StochasticFailureModel",
        ),
        "repro.simulation.lifecycle": ("ActiveAgreement", "AgreementLifecycleManager"),
        "repro.simulation.metrics": ("MetricsTrace", "TraceRecord"),
        "repro.simulation.network": ("DynamicNetwork",),
        "repro.simulation.routing": (
            "AvailabilityMonitor",
            "BGPRoutingService",
            "PANRoutingService",
            "RoutingService",
        ),
        "repro.simulation.scenarios": (
            "SCENARIOS",
            "AgreementMarketplaceScenario",
            "FailureChurnScenario",
            "FlashCrowdScenario",
            "ScenarioResult",
            "SimulationScenario",
            "run_scenario",
        ),
        "repro.simulation.traffic": ("FlashCrowd", "TimeVaryingDemand"),
    },
)

__all__ = [
    "SimulationError",
    "Process",
    "SimulationEngine",
    "MetricsTrace",
    "TraceRecord",
    "DynamicNetwork",
    "LINK_DOWN",
    "LINK_UP",
    "LinkEvent",
    "DeterministicFailureSchedule",
    "StochasticFailureModel",
    "FailureInjector",
    "RoutingService",
    "BGPRoutingService",
    "PANRoutingService",
    "AvailabilityMonitor",
    "TimeVaryingDemand",
    "FlashCrowd",
    "ActiveAgreement",
    "AgreementLifecycleManager",
    "SimulationScenario",
    "ScenarioResult",
    "FailureChurnScenario",
    "AgreementMarketplaceScenario",
    "FlashCrowdScenario",
    "SCENARIOS",
    "run_scenario",
]

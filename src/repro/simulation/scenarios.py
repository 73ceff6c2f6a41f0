"""Canned simulation scenarios and the scenario registry.

Three scenarios exercise the engine end-to-end:

- ``failure-churn`` — BGP vs. PAN path availability on the same seeded
  link-failure schedule (the dynamic version of §II): BGP pairs go dark
  while reconvergence is pending, PAN sources fail over instantly among
  beaconed paths.
- ``marketplace`` — an agreement marketplace over a billing horizon:
  mutuality agreements are BOSCO-negotiated, metered under diurnal
  demand, billed at expiry, and renegotiated (§III–§V over time).
- ``flash-crowd`` — a demand spike hits the paper's Fig. 1 agreement
  between D and E mid-term and shows up in the 95th-percentile bill.
- ``marketplace-heterogeneous`` — the marketplace over a mixed-profile
  agent population (honest/dishonest/adaptive/budget/regional, see
  :mod:`repro.agents`) with a regional partition and a price war.

Each scenario is reproducible: the same seed yields a byte-identical
metrics trace (:meth:`ScenarioResult.trace_text`).

The registry, each scenario's knobs and :class:`ScenarioResult` are part
of the typed request surface, so this module imports no part of the
simulator: a scenario loads the engine and its processes when it runs.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro.envelope import INPUT_FILE, JsonCodec
from repro.errors import ValidationError
from repro.simulation.metrics import MetricsTrace
from repro.topology.relationships import Relationship

if TYPE_CHECKING:
    from repro.agents.population import PopulationSpec
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.network import DynamicNetwork
    from repro.topology.graph import ASGraph


@dataclass(frozen=True)
class ScenarioResult(JsonCodec):
    """Outcome of one scenario run; its envelope carries the full trace."""

    kind = "scenario_result"

    name: str
    seed: int
    duration: float
    events_processed: int
    headline: tuple[str, ...] = ()
    trace: MetricsTrace = field(kw_only=True)

    def trace_text(self) -> str:
        """The full metrics trace as deterministic JSON lines."""
        return self.trace.to_jsonl()

    def summary(self) -> str:
        """Human-readable run summary."""
        kinds = ", ".join(f"{k}={v}" for k, v in self.trace.kinds().items())
        lines = [
            f"== scenario: {self.name} (seed {self.seed}, horizon {self.duration:g}) ==",
            f"events processed: {self.events_processed}",
            f"trace records: {len(self.trace)} ({kinds})",
            *self.headline,
        ]
        return "\n".join(lines)


class SimulationScenario(JsonCodec, abc.ABC):
    """A reproducible simulation setup: build processes, run, summarize.

    Its public fields are the scenario's knobs, decoded from overrides
    like any request (:func:`run_scenario`).
    """

    name: ClassVar[str] = "scenario"
    description: ClassVar[str] = ""
    #: Intervals, terms and means: finite and > 0.  A zero interval or
    #: term would reschedule its event chain at the same instant forever.
    positive_knobs: ClassVar[tuple[str, ...]] = ()
    #: Delays and the horizon: finite and >= 0.
    non_negative_knobs: ClassVar[tuple[str, ...]] = ("duration",)
    decode_error = ValidationError
    seed: int
    duration: float

    def __post_init__(self) -> None:
        for knob in self.positive_knobs:
            value = getattr(self, knob)
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(
                    f"{self.name}.{knob} must be a finite number > 0, got {value!r}"
                )
        for knob in self.non_negative_knobs:
            value = getattr(self, knob)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(
                    f"{self.name}.{knob} must be a finite number >= 0, got {value!r}"
                )

    @abc.abstractmethod
    def build(self, engine: SimulationEngine, network: DynamicNetwork) -> None:
        """Register the scenario's processes on the engine."""

    @abc.abstractmethod
    def topology(self) -> ASGraph:
        """The base topology of the scenario."""

    def headline(self, trace: MetricsTrace) -> tuple[str, ...]:
        """Scenario-specific summary lines."""
        return ()

    def run(self) -> ScenarioResult:
        """Build an engine, run to the horizon, and summarize."""
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.network import DynamicNetwork

        engine = SimulationEngine()
        network = DynamicNetwork(self.topology())
        self.build(engine, network)
        trace = engine.run(until=self.duration)
        return ScenarioResult(
            name=self.name,
            seed=self.seed,
            duration=self.duration,
            events_processed=engine.events_processed,
            trace=trace,
            headline=self.headline(trace),
        )


def _generated_topology(scenario: Any) -> ASGraph:
    """The seeded synthetic topology a scenario's tier-size knobs describe."""
    from repro.topology.generator import generate_topology

    return generate_topology(
        num_tier1=scenario.num_tier1,
        num_tier2=scenario.num_tier2,
        num_tier3=scenario.num_tier3,
        num_stubs=scenario.num_stubs,
        seed=scenario.seed,
    ).graph


def _peering_pairs(graph: ASGraph, count: int) -> tuple[tuple[int, int], ...]:
    """The first ``count`` peering links below the tier-1 clique."""
    tier1 = graph.tier1_ases()
    pairs = [
        (link.first, link.second)
        for link in graph.links
        if link.relationship is Relationship.PEER_TO_PEER
        and link.first not in tier1
        and link.second not in tier1
    ]
    return tuple(sorted(pairs))[:count]


@dataclass
class FailureChurnScenario(SimulationScenario):
    """BGP vs. PAN availability under seeded link-failure churn."""

    name: ClassVar[str] = "failure-churn"
    description: ClassVar[str] = "BGP vs. PAN path availability under link-failure churn"
    positive_knobs: ClassVar[tuple[str, ...]] = (
        "mean_time_to_failure",
        "mean_time_to_repair",
        "beacon_interval",
        "sample_interval",
    )
    non_negative_knobs: ClassVar[tuple[str, ...]] = ("duration", "reconvergence_delay")

    seed: int = 2021
    duration: float = 72.0
    num_tier1: int = 3
    num_tier2: int = 8
    num_tier3: int = 16
    num_stubs: int = 30
    num_pairs: int = 6
    mean_time_to_failure: float = 150.0
    mean_time_to_repair: float = 4.0
    beacon_interval: float = 1.0
    reconvergence_delay: float = 0.25
    sample_interval: float = 0.5

    def topology(self) -> ASGraph:
        return _generated_topology(self)

    def _monitored_pairs(self, graph: ASGraph) -> tuple[tuple[int, int], ...]:
        """Deterministically sampled stub-to-stub pairs.

        Pairs share a small destination set so the BGP service only has
        to reconverge a handful of path-vector instances per change.
        """
        stubs = sorted(asn for asn in graph if graph.is_stub(asn))
        rng = np.random.default_rng(self.seed)
        shuffled = [int(x) for x in rng.permutation(stubs)]
        destinations = shuffled[: max(self.num_pairs // 2, 1)]
        sources = shuffled[len(destinations) : len(destinations) + self.num_pairs]
        pairs = []
        for index, source in enumerate(sources):
            destination = destinations[index % len(destinations)]
            if source != destination:
                pairs.append((source, destination))
        return tuple(sorted(set(pairs)))

    def build(self, engine: SimulationEngine, network: DynamicNetwork) -> None:
        from repro.simulation.failures import FailureInjector, StochasticFailureModel
        from repro.simulation.routing import (
            AvailabilityMonitor,
            BGPRoutingService,
            PANRoutingService,
        )

        graph = network.base_graph
        pairs = self._monitored_pairs(graph)
        links = tuple((link.first, link.second) for link in graph.links)
        engine.add_process(
            FailureInjector(
                network=network,
                schedule=StochasticFailureModel(
                    links=links,
                    mean_time_to_failure=self.mean_time_to_failure,
                    mean_time_to_repair=self.mean_time_to_repair,
                    seed=self.seed,
                ),
                horizon=self.duration,
            )
        )
        bgp = BGPRoutingService(
            network=network,
            destinations=tuple(sorted({d for _, d in pairs})),
            reconvergence_delay=self.reconvergence_delay,
        )
        pan = PANRoutingService(network=network, beacon_interval=self.beacon_interval)
        engine.add_process(bgp)
        engine.add_process(pan)
        engine.add_process(
            AvailabilityMonitor(
                services=(bgp, pan),
                pairs=pairs,
                sample_interval=self.sample_interval,
            )
        )

    def headline(self, trace: MetricsTrace) -> tuple[str, ...]:
        bgp = trace.availability("BGP")
        pan = trace.availability("PAN")
        link_events = len(trace.of_kind("link_event"))
        reconvergences = len(trace.of_kind("bgp_reconverged"))
        return (
            f"link failure/recovery events: {link_events}",
            f"BGP reconvergence passes: {reconvergences}",
            f"mean path availability  BGP: {bgp:.4f}",
            f"mean path availability  PAN: {pan:.4f}",
            f"PAN >= BGP availability: {pan >= bgp}",
        )


@dataclass
class AgreementMarketplaceScenario(SimulationScenario):
    """Mutuality agreements negotiated, metered, billed, renegotiated."""

    name: ClassVar[str] = "marketplace"
    description: ClassVar[str] = (
        "agreement lifecycles (negotiate/meter/bill) over a billing horizon"
    )
    positive_knobs: ClassVar[tuple[str, ...]] = ("term_duration", "metering_interval")

    seed: int = 2021
    duration: float = 24.0 * 30.0
    num_tier1: int = 3
    num_tier2: int = 6
    num_tier3: int = 10
    num_stubs: int = 12
    num_pairs: int = 6
    term_duration: float = 24.0 * 7.0
    metering_interval: float = 1.0
    mean_demand: float = 10.0

    def topology(self) -> ASGraph:
        return _generated_topology(self)

    def build(self, engine: SimulationEngine, network: DynamicNetwork) -> None:
        from repro.simulation.lifecycle import AgreementLifecycleManager

        engine.add_process(
            AgreementLifecycleManager(
                network=network,
                pairs=_peering_pairs(network.base_graph, self.num_pairs),
                term_duration=self.term_duration,
                metering_interval=self.metering_interval,
                mean_demand=self.mean_demand,
                seed=self.seed,
            )
        )

    def headline(self, trace: MetricsTrace) -> tuple[str, ...]:
        negotiations = trace.of_kind("negotiation")
        concluded = sum(1 for r in negotiations if r.data["concluded"])
        billings = trace.of_kind("billing")
        revenue = trace.revenue_by_as()
        top = sorted(revenue.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        top_text = ", ".join(f"AS{asn}: {value:.1f}" for asn, value in top)
        return (
            f"negotiations: {len(negotiations)} (concluded: {concluded})",
            f"billed agreement terms: {len(billings)}",
            f"top billed revenue — {top_text}" if top else "no revenue billed",
        )


@dataclass
class FlashCrowdScenario(SimulationScenario):
    """A flash crowd hits the Fig. 1 D–E agreement mid-term."""

    name: ClassVar[str] = "flash-crowd"
    description: ClassVar[str] = "a traffic spike through the Fig. 1 D-E agreement and its p95 bill"
    positive_knobs: ClassVar[tuple[str, ...]] = ("term_duration", "metering_interval")

    seed: int = 2021
    duration: float = 24.0 * 7.0 + 1.0
    term_duration: float = 24.0 * 7.0
    metering_interval: float = 0.5
    mean_demand: float = 10.0
    crowd_start: float = 24.0 * 3.0
    crowd_duration: float = 12.0
    crowd_multiplier: float = 6.0

    def topology(self) -> ASGraph:
        from repro.topology.fixtures import figure1_topology

        return figure1_topology()

    def build(self, engine: SimulationEngine, network: DynamicNetwork) -> None:
        from repro.economics.timeseries import BillingRule
        from repro.simulation.lifecycle import AgreementLifecycleManager
        from repro.simulation.traffic import FlashCrowd
        from repro.topology.fixtures import AS_D, AS_E

        engine.add_process(
            AgreementLifecycleManager(
                network=network,
                pairs=((AS_D, AS_E),),
                term_duration=self.term_duration,
                metering_interval=self.metering_interval,
                mean_demand=self.mean_demand,
                billing_rule=BillingRule.NINETY_FIFTH_PERCENTILE,
                seed=self.seed,
                flash_crowds=(
                    FlashCrowd(
                        start=self.crowd_start,
                        duration=self.crowd_duration,
                        multiplier=self.crowd_multiplier,
                    ),
                ),
            )
        )

    def headline(self, trace: MetricsTrace) -> tuple[str, ...]:
        billings = trace.of_kind("billing")
        if not billings:
            return ("no term was billed (agreement not concluded)",)
        record = billings[0]
        billed = max(
            float(record.data["billed_volume_x"]), float(record.data["billed_volume_y"])
        )
        ratio = billed / self.mean_demand if self.mean_demand else 0.0
        return (
            f"billed p95 volume: {billed:.2f} "
            f"(mean demand {self.mean_demand:g}, ratio {ratio:.2f}x)",
            "the flash crowd drives the 95th percentile far above the mean — "
            "exactly why flow-volume conditions need headroom (§IV-C)",
        )


@dataclass
class HeterogeneousMarketplaceScenario(SimulationScenario):
    """A mixed-profile agreement marketplace with regional shocks.

    The population-scale version of the marketplace: every AS carries a
    behavior profile from a declarative population spec (``population``
    — a JSON file path, or the built-in five-profile mix when empty),
    pairs negotiate in mixed sub-batched cohorts, a regional partition
    cuts one region off mid-run, and a price war scales a region's
    billing prices for a window.  Per-profile uptake/utility/PoD/
    default-rate metrics close the trace.
    """

    name: ClassVar[str] = "marketplace-heterogeneous"
    description: ClassVar[str] = "a mixed-profile agreement marketplace with regional shocks"
    positive_knobs: ClassVar[tuple[str, ...]] = ("term_duration", "metering_interval")

    seed: int = 2021
    duration: float = 24.0 * 14.0
    num_tier1: int = 3
    num_tier2: int = 8
    num_tier3: int = 14
    num_stubs: int = 20
    num_pairs: int = 10
    term_duration: float = 24.0 * 7.0
    metering_interval: float = 1.0
    mean_demand: float = 10.0
    #: Path of a population spec JSON ("" = the built-in mixed spec).
    population: str = field(default="", metadata=INPUT_FILE)
    partition_region: int = 2
    partition_start: float = 24.0 * 5.0
    partition_duration: float = 48.0
    price_war_region: int = 0
    price_war_start: float = 24.0 * 8.0
    price_war_duration: float = 96.0
    price_war_multiplier: float = 0.5

    def topology(self) -> ASGraph:
        return _generated_topology(self)

    def population_spec(self) -> PopulationSpec:
        """The population document this run resolves (file or built-in)."""
        from repro.agents.population import PopulationSpec, default_population_spec

        if self.population:
            return PopulationSpec.load(self.population)
        return default_population_spec(seed=self.seed)

    def build(self, engine: SimulationEngine, network: DynamicNetwork) -> None:
        from repro.agents.population import assign_regions
        from repro.simulation.failures import FailureInjector
        from repro.simulation.lifecycle import AgreementLifecycleManager
        from repro.simulation.shocks import PriceWar, RegionalPartition

        graph = network.base_graph
        regions = assign_regions(graph, seed=self.seed)
        population = self.population_spec().resolve(graph, regions)
        price_wars: tuple[PriceWar, ...] = ()
        if self.price_war_multiplier != 1.0:
            price_wars = (
                PriceWar(
                    start=self.price_war_start,
                    duration=self.price_war_duration,
                    multiplier=self.price_war_multiplier,
                    region=self.price_war_region,
                ),
            )
        if self.partition_region >= 0 and self.partition_start <= self.duration:
            partition = RegionalPartition(
                region=self.partition_region,
                start=self.partition_start,
                duration=self.partition_duration,
            )
            engine.add_process(
                FailureInjector(
                    network=network,
                    schedule=partition.failure_schedule(graph, regions),
                    horizon=self.duration,
                )
            )
        lifecycle = AgreementLifecycleManager(
            network=network,
            pairs=_peering_pairs(graph, self.num_pairs),
            term_duration=self.term_duration,
            metering_interval=self.metering_interval,
            mean_demand=self.mean_demand,
            seed=self.seed,
            population=population,
            price_wars=price_wars,
        )
        engine.add_process(lifecycle)
        # Priority 50: the per-profile summary closes the trace, after
        # every same-instant billing/negotiation event has settled.
        engine.schedule_at(
            self.duration,
            lifecycle.record_population_metrics,
            priority=50,
        )

    def headline(self, trace: MetricsTrace) -> tuple[str, ...]:
        negotiations = trace.of_kind("negotiation")
        concluded = sum(1 for r in negotiations if r.data["concluded"])
        vetoed = sum(1 for r in negotiations if r.data.get("vetoed"))
        billings = trace.of_kind("billing")
        lines = [
            f"negotiations: {len(negotiations)} "
            f"(concluded: {concluded}, vetoed: {vetoed})",
            f"billed agreement terms: {len(billings)}",
        ]
        for record in trace.of_kind("profile_metrics"):
            data = record.data
            lines.append(
                f"profile {data['profile']}: agents {data['agents']}, "
                f"uptake {data['uptake']:.2f}, "
                f"mean utility {data['mean_utility']:.2f}, "
                f"default rate {data['default_rate']:.2f}"
            )
        return tuple(lines)


#: Registry of canned scenarios, keyed by CLI name.
SCENARIOS: dict[str, type[SimulationScenario]] = {
    "failure-churn": FailureChurnScenario,
    "marketplace": AgreementMarketplaceScenario,
    "flash-crowd": FlashCrowdScenario,
    "marketplace-heterogeneous": HeterogeneousMarketplaceScenario,
}


def scenario_catalog() -> tuple[dict[str, Any], ...]:
    """JSON-safe listing of every canned scenario and its knobs.

    Each entry carries the scenario's name, description, and sweepable
    fields (name, type, default) — what ``repro simulate
    --list-scenarios`` prints.
    """
    catalog = []
    for name in sorted(SCENARIOS):
        scenario_cls = SCENARIOS[name]
        fields = [
            {
                "name": spec.name,
                "type": spec.type if isinstance(spec.type, str) else spec.type.__name__,
                "default": spec.default,
            }
            for spec in dataclasses.fields(scenario_cls)
        ]
        catalog.append(
            {
                "name": name,
                "description": scenario_cls.description,
                "fields": fields,
            }
        )
    return tuple(catalog)


def scenario_field_names(name: str) -> frozenset[str]:
    """The sweepable public fields of a scenario (its init'able knobs).

    This is the validation surface of the sweep spec's ``scenarios``
    axis: any field listed here can be overridden per sweep
    configuration.
    """
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    return frozenset(field.name for field in dataclasses.fields(SCENARIOS[name]))


def run_scenario(
    name: str,
    *,
    seed: int | None = None,
    duration: float | None = None,
    **overrides: Any,
) -> ScenarioResult:
    """Run a canned scenario by name with optional overrides.

    ``overrides`` may set any sweepable scenario field (see
    :func:`scenario_field_names`) — the hook the sweep orchestrator uses
    to explore scenario knobs (failure rates, demand levels, topology
    sizes, …) without hand-editing scenario classes.  They are decoded
    like a request: an unknown or ill-typed field is a
    :class:`~repro.errors.ValidationError` (exit 2 / HTTP 400) naming it.
    """
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    if seed is not None:
        overrides["seed"] = seed
    if duration is not None:
        overrides["duration"] = duration
    return SCENARIOS[name].from_json_dict(overrides).run()

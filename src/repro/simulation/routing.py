"""Routing processes over the dynamic topology: BGP vs. PAN.

Both services wrap the existing *static* routing layers and give them a
temporal dimension:

- :class:`BGPRoutingService` keeps one selected route per (source,
  monitored destination) pair, computed by the path-vector simulator
  under Gao–Rexford policies.  A topology change does not take effect
  instantly: reconvergence completes only ``reconvergence_delay`` after
  the change, and until then packets follow the stale route — if that
  route uses a failed link, the pair is simply unreachable (the
  transient blackholing the paper's stability argument is about).
- :class:`PANRoutingService` periodically re-runs SCION-style beaconing
  on the active topology and registers segments at a path server.  The
  source holds *several* end-to-end paths and fails over per-packet: a
  pair is available as long as any discovered path is physically intact
  right now, without waiting for any global protocol to converge.

An :class:`AvailabilityMonitor` samples the services over the same
failure schedule and records the per-architecture availability ratio
into the metrics trace — the dynamic counterpart of §II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.routing.beaconing import BeaconingProcess, PathServer
from repro.routing.bgp import BGPSimulator
from repro.routing.pan import PathAwareNetwork
from repro.routing.policies import gao_rexford_policies
from repro.simulation.engine import Process, SimulationEngine
from repro.simulation.network import DynamicNetwork


class RoutingService(Process):
    """Common interface the availability monitor samples."""

    architecture: str = "unknown"

    def is_available(self, source: int, destination: int) -> bool:
        """Whether the pair can exchange packets right now."""
        raise NotImplementedError


@dataclass
class BGPRoutingService(RoutingService):
    """Path-vector routing with delayed reconvergence after changes."""

    network: DynamicNetwork
    destinations: tuple[int, ...]
    reconvergence_delay: float = 0.25
    max_rounds: int = 200
    architecture: str = "BGP"
    #: routes[destination][source] -> selected AS path or None
    _routes: dict[int, dict[int, tuple[int, ...] | None]] = field(
        default_factory=dict, init=False
    )
    _engine: SimulationEngine | None = field(default=None, init=False)
    _pending_until: float = field(default=-1.0, init=False)
    reconvergences: int = field(default=0, init=False)

    def start(self, engine: SimulationEngine) -> None:
        self._engine = engine
        self.destinations = tuple(sorted(set(self.destinations)))
        self._recompute()
        self.network.subscribe(self._on_change)

    # ------------------------------------------------------------------
    # Reaction to topology changes
    # ------------------------------------------------------------------
    def _on_change(self, time: float, change: str, link: tuple[int, int]) -> None:
        engine = self._engine
        assert engine is not None
        completion = time + self.reconvergence_delay
        # Batch changes within one reconvergence window: BGP reconverges
        # once at the end of the window on whatever topology holds then.
        if completion <= self._pending_until:
            return
        self._pending_until = completion
        engine.trace.record(
            time, "bgp_reconvergence_started", link=list(link), change=change
        )
        engine.schedule(
            self.reconvergence_delay,
            self._complete_reconvergence,
            priority=-5,
        )

    def _complete_reconvergence(self) -> None:
        engine = self._engine
        assert engine is not None
        if engine.now < self._pending_until:
            return  # superseded by a later change inside the window
        steps = self._recompute()
        self.reconvergences += 1
        engine.trace.record(
            engine.now,
            "bgp_reconverged",
            steps=steps,
            failed_links=self.network.num_failed_links(),
        )

    def _recompute(self) -> int:
        """Run the path-vector simulator on the active topology."""
        graph = self.network.active_graph()
        policies = gao_rexford_policies(graph)
        total_steps = 0
        for destination in self.destinations:
            simulator = BGPSimulator(
                graph=graph, destination=destination, policies=policies
            )
            outcome = simulator.run(max_rounds=self.max_rounds)
            self._routes[destination] = outcome.routes
            total_steps += outcome.steps
        return total_steps

    # ------------------------------------------------------------------
    # Data-plane view
    # ------------------------------------------------------------------
    def route(self, source: int, destination: int) -> tuple[int, ...] | None:
        """The currently installed (possibly stale) route of a pair."""
        return self._routes.get(destination, {}).get(source)

    def is_available(self, source: int, destination: int) -> bool:
        """Reachable iff the installed route is physically intact.

        During a reconvergence window the installed route may still use
        a failed link — then traffic blackholes until the new stable
        state is computed.
        """
        route = self.route(source, destination)
        if route is None:
            return False
        return self.network.path_is_intact(route)


@dataclass
class PANRoutingService(RoutingService):
    """Periodic beaconing plus per-packet failover at the source."""

    network: DynamicNetwork
    beacon_interval: float = 1.0
    max_paths: int = 8
    apply_grc_authorization: bool = True
    architecture: str = "PAN"
    _path_server: PathServer | None = field(default=None, init=False)
    _path_cache: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = field(
        default_factory=dict, init=False
    )
    beaconing_runs: int = field(default=0, init=False)

    def start(self, engine: SimulationEngine) -> None:
        self._run_beaconing(engine)
        engine.schedule_every(
            self.beacon_interval,
            lambda: self._run_beaconing(engine),
            start=self.beacon_interval,
            priority=-4,
        )

    def _run_beaconing(self, engine: SimulationEngine) -> None:
        """Re-discover segments on the topology as it currently stands."""
        graph = self.network.active_graph()
        store = BeaconingProcess(graph).run()
        pan: PathAwareNetwork | None = None
        if self.apply_grc_authorization:
            pan = PathAwareNetwork(graph)
            pan.authorize_grc_segments()
        self._path_server = PathServer(graph=graph, store=store, network=pan)
        self._path_cache.clear()
        self.beaconing_runs += 1
        segments = sum(len(paths) for paths in store.down_segments.values())
        engine.trace.record(
            engine.now,
            "beaconing_completed",
            down_segments=segments,
            failed_links=self.network.num_failed_links(),
        )

    # ------------------------------------------------------------------
    # Data-plane view
    # ------------------------------------------------------------------
    def paths(self, source: int, destination: int) -> tuple[tuple[int, ...], ...]:
        """Paths known to the source since the last beaconing pass."""
        if self._path_server is None:
            return ()
        key = (source, destination)
        if key not in self._path_cache:
            self._path_cache[key] = self._path_server.lookup(
                source, destination, max_paths=self.max_paths
            )
        return self._path_cache[key]

    def is_available(self, source: int, destination: int) -> bool:
        """Reachable iff any known path is physically intact right now.

        The source embeds the path in the packet header, so switching to
        a backup path needs no coordination with anyone — this is the
        instant failover that makes PANs come out ahead under churn.
        """
        return any(
            self.network.path_is_intact(path)
            for path in self.paths(source, destination)
        )


@dataclass
class AvailabilityMonitor(Process):
    """Samples pair availability of several architectures over time."""

    services: tuple[RoutingService, ...]
    pairs: tuple[tuple[int, int], ...]
    sample_interval: float = 0.5
    samples_taken: int = field(default=0, init=False)

    def start(self, engine: SimulationEngine) -> None:
        self.pairs = tuple(sorted(self.pairs))
        engine.schedule_every(
            self.sample_interval,
            lambda: self._sample(engine),
            start=0.0,
            priority=10,  # after failures/reconvergence at the same instant
        )

    def _sample(self, engine: SimulationEngine) -> None:
        for service in self.services:
            available = sum(
                1 for source, destination in self.pairs
                if service.is_available(source, destination)
            )
            engine.trace.record(
                engine.now,
                "availability_sample",
                architecture=service.architecture,
                available=available,
                pairs=len(self.pairs),
                ratio=available / len(self.pairs) if self.pairs else 0.0,
            )
        self.samples_taken += 1

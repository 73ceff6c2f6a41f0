"""Link failure and recovery injection.

Two schedule models drive the churn:

- :class:`DeterministicFailureSchedule` replays an explicit list of
  timed link-down / link-up events — the right tool for reproducing a
  specific incident (e.g. the §II degradation of a benign topology into
  a BAD GADGET when one link fails).
- :class:`StochasticFailureModel` draws per-link exponential
  time-to-failure and time-to-repair sequences from a seeded generator,
  modelling background churn.  Given the same seed it always produces
  the same event list, so stochastic runs stay reproducible.

A :class:`FailureInjector` process schedules the resulting events on the
engine and applies them to the :class:`DynamicNetwork`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simulation.engine import Process, SimulationEngine, SimulationError
from repro.simulation.network import DynamicNetwork

#: Event kinds understood by the injector.
LINK_DOWN = "down"
LINK_UP = "up"


@dataclass(frozen=True)
class LinkEvent:
    """One timed link state change."""

    time: float
    kind: str
    left: int
    right: int

    def __post_init__(self) -> None:
        if self.kind not in (LINK_DOWN, LINK_UP):
            raise SimulationError(f"unknown link event kind {self.kind!r}")
        if self.time < 0.0:
            raise SimulationError(f"link events need non-negative times, got {self.time}")

    @property
    def link(self) -> tuple[int, int]:
        """Endpoints as a sorted pair."""
        return (min(self.left, self.right), max(self.left, self.right))


@dataclass(frozen=True)
class DeterministicFailureSchedule:
    """An explicit, replayable list of link events."""

    events: tuple[LinkEvent, ...] = ()

    @classmethod
    def of(cls, *events: tuple[float, str, int, int]) -> "DeterministicFailureSchedule":
        """Build from ``(time, kind, left, right)`` tuples."""
        return cls(
            events=tuple(LinkEvent(time=t, kind=k, left=a, right=b) for t, k, a, b in events)
        )

    def link_events(self, horizon: float) -> tuple[LinkEvent, ...]:
        """Events within the horizon, in deterministic order."""
        return tuple(
            sorted(
                (e for e in self.events if e.time <= horizon),
                key=lambda e: (e.time, e.kind, e.link),
            )
        )


@dataclass(frozen=True)
class StochasticFailureModel:
    """Seeded exponential failure/repair churn over a set of links.

    Each link alternates up/down: up-times are exponential with mean
    ``mean_time_to_failure``, down-times exponential with mean
    ``mean_time_to_repair``.  Each link gets its own generator derived
    from ``seed`` and the link endpoints, so the event sequence is
    independent of the iteration order of the link set.
    """

    links: tuple[tuple[int, int], ...]
    mean_time_to_failure: float
    mean_time_to_repair: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mean_time_to_failure <= 0.0 or self.mean_time_to_repair <= 0.0:
            raise SimulationError("failure and repair means must be positive")
        canonical = tuple(sorted((min(a, b), max(a, b)) for a, b in self.links))
        object.__setattr__(self, "links", canonical)

    def link_events(self, horizon: float) -> tuple[LinkEvent, ...]:
        """Sample all events up to the horizon (deterministic per seed)."""
        events: list[LinkEvent] = []
        for left, right in self.links:
            rng = np.random.default_rng((self.seed, left, right))
            time = 0.0
            while True:
                time += float(rng.exponential(self.mean_time_to_failure))
                if time > horizon:
                    break
                events.append(LinkEvent(time=time, kind=LINK_DOWN, left=left, right=right))
                time += float(rng.exponential(self.mean_time_to_repair))
                if time > horizon:
                    break
                events.append(LinkEvent(time=time, kind=LINK_UP, left=left, right=right))
        return tuple(sorted(events, key=lambda e: (e.time, e.kind, e.link)))


@dataclass
class FailureInjector(Process):
    """Applies a failure schedule to the dynamic network."""

    network: DynamicNetwork
    schedule: DeterministicFailureSchedule | StochasticFailureModel
    horizon: float
    applied_events: int = field(default=0, init=False)

    def start(self, engine: SimulationEngine) -> None:
        # Failures fire before routing reactions and availability samples
        # scheduled for the same instant (priority -10 < default 0), so a
        # sample taken at the failure time sees the failed link.
        for event in self.schedule.link_events(self.horizon):
            engine.schedule_at(
                event.time,
                self._apply(engine, event),
                priority=-10,
            )

    def _apply(self, engine: SimulationEngine, event: LinkEvent):
        def apply() -> None:
            left, right = event.link
            if event.kind == LINK_DOWN:
                changed = self.network.fail_link(left, right, time=engine.now)
            else:
                changed = self.network.restore_link(left, right, time=engine.now)
            if changed:
                self.applied_events += 1
                engine.trace.record(
                    engine.now,
                    "link_event",
                    change=event.kind,
                    link=[left, right],
                    failed_links=self.network.num_failed_links(),
                )

        return apply

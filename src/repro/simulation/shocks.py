"""Marketplace shocks layered on the existing failure/pricing machinery.

Two population-scale disturbances for heterogeneous marketplace runs:

- :class:`RegionalPartition` — every link with exactly one endpoint in
  a geographic region goes down for a window, isolating the region
  from the rest of the topology.  It compiles to a
  :class:`~repro.simulation.failures.DeterministicFailureSchedule`, so
  the ordinary :class:`~repro.simulation.failures.FailureInjector`
  applies it with the usual priority ordering and ``link_event`` trace
  records.
- :class:`PriceWar` — sellers in a region temporarily scale their unit
  price (a multiplier below 1 models a price-cutting war, above 1 a
  scarcity premium).  The agreement lifecycle consults
  :meth:`PriceWar.multiplier_at` when a term is billed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.simulation.engine import SimulationError
from repro.simulation.failures import (
    LINK_DOWN,
    LINK_UP,
    DeterministicFailureSchedule,
    LinkEvent,
)
from repro.topology.graph import ASGraph

__all__ = ["RegionalPartition", "PriceWar"]


@dataclass(frozen=True)
class RegionalPartition:
    """A region loses all connectivity to the outside for a window."""

    region: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.region < 0:
            raise SimulationError(f"partition region must be non-negative, got {self.region}")
        if self.start < 0.0:
            raise SimulationError(f"partition start must be non-negative, got {self.start}")
        if self.duration <= 0.0:
            raise SimulationError(f"partition duration must be positive, got {self.duration}")

    def failure_schedule(
        self, graph: ASGraph, regions: Mapping[int, int]
    ) -> DeterministicFailureSchedule:
        """Down/up events for every link crossing the region boundary."""
        events: list[LinkEvent] = []
        for link in graph.links:
            inside_first = regions.get(link.first) == self.region
            inside_second = regions.get(link.second) == self.region
            if inside_first == inside_second:
                continue
            events.append(
                LinkEvent(time=self.start, kind=LINK_DOWN, left=link.first, right=link.second)
            )
            events.append(
                LinkEvent(
                    time=self.start + self.duration,
                    kind=LINK_UP,
                    left=link.first,
                    right=link.second,
                )
            )
        return DeterministicFailureSchedule(events=tuple(events))


@dataclass(frozen=True)
class PriceWar:
    """A temporary regional scaling of the marketplace unit price."""

    start: float
    duration: float
    multiplier: float = 0.5
    #: Region the war is fought in; ``-1`` means marketplace-wide.
    region: int = -1

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise SimulationError(f"price war start must be non-negative, got {self.start}")
        if self.duration <= 0.0:
            raise SimulationError(f"price war duration must be positive, got {self.duration}")
        if self.multiplier <= 0.0:
            raise SimulationError(
                f"price war multiplier must be positive, got {self.multiplier}"
            )

    def multiplier_at(self, time: float, region: int) -> float:
        """The price multiplier a seller in ``region`` sees at ``time``."""
        if not self.start <= time < self.start + self.duration:
            return 1.0
        if self.region >= 0 and region != self.region:
            return 1.0
        return self.multiplier

"""Event queue and virtual clock of the discrete-event simulation kernel.

The kernel is deliberately minimal: a binary heap of timestamped events
and a monotonically advancing virtual clock.  Determinism is a hard
requirement (two runs with the same seed must produce byte-identical
metrics traces), so ties are broken by an explicit ``(time, priority,
sequence)`` key — events scheduled for the same instant fire in priority
order, and within the same priority in scheduling (FIFO) order.  No
wall-clock time ever enters the simulation.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field


class SimulationError(Exception):
    """Raised for inconsistent simulation operations."""


@dataclass(frozen=True)
class Event:
    """A scheduled callback in virtual time.

    Ordering is total: by ``time``, then ``priority`` (lower fires
    first), then ``sequence`` (scheduling order).  ``action`` takes no
    arguments; processes close over whatever state they need.
    """

    time: float
    priority: int
    sequence: int
    action: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)

    @property
    def key(self) -> tuple[float, int, int]:
        """The deterministic ordering key of the event."""
        return (self.time, self.priority, self.sequence)

    def __lt__(self, other: "Event") -> bool:
        return self.key < other.key


class EventQueue:
    """Deterministic priority queue of simulation events."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = itertools.count()
        #: Sequences of the events that are scheduled and neither fired
        #: nor cancelled; the heap may still hold cancelled ones.
        self._pending: set[int] = set()

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return len(self) > 0

    def push(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule an event and return its handle."""
        if time < 0.0:
            raise SimulationError(f"cannot schedule an event at negative time {time}")
        event = Event(
            time=time,
            priority=priority,
            sequence=next(self._sequence),
            action=action,
            name=name,
        )
        heapq.heappush(self._heap, event)
        self._pending.add(event.sequence)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (it will be skipped when popped).

        Cancelling an event that already fired or was cancelled is a
        no-op.
        """
        self._pending.discard(event.sequence)

    def pop(self) -> Event:
        """Remove and return the next event in deterministic order."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.sequence in self._pending:
                self._pending.remove(event.sequence)
                return event
        raise SimulationError("pop from an empty event queue")

    def peek_time(self) -> float | None:
        """Virtual time of the next event, or ``None`` when empty."""
        while self._heap and self._heap[0].sequence not in self._pending:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None


class SimulationClock:
    """A monotonically advancing virtual clock (no wall-clock leakage)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Advance the clock; moving backwards is a simulation bug."""
        if time < self._now:
            raise SimulationError(
                f"virtual clock cannot move backwards: {self._now} -> {time}"
            )
        self._now = time

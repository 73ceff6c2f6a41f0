"""The discrete-event simulation engine.

The engine owns the event queue, the virtual clock and the metrics
trace.  Processes (beaconing, failure injection, traffic, agreement
lifecycles, …) register with the engine, schedule their events, and
record observations into the shared trace; each process seeds its own
random generator.

The queue is a binary heap of ``(time, priority, sequence, action)``
tuples, so ordering compares in C.  Determinism is a hard requirement
(two runs with the same seed must produce byte-identical metrics
traces): events scheduled for the same instant fire in priority order
(lower first), and within the same priority in scheduling (FIFO) order.
The sequence number is unique, so the heap never compares two actions.
No wall-clock time ever enters the simulation.

Virtual time is unitless by convention; the canned scenarios interpret
it as hours, which makes the diurnal traffic model line up naturally.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from collections.abc import Callable

from repro.simulation.metrics import MetricsTrace


class SimulationError(Exception):
    """Raised for inconsistent simulation operations."""


class Process(abc.ABC):
    """A simulation process: registers its events when the run starts."""

    @abc.abstractmethod
    def start(self, engine: "SimulationEngine") -> None:
        """Schedule the process's initial events on the engine."""


class SimulationEngine:
    """Event loop over a virtual clock with a shared metrics trace."""

    def __init__(self) -> None:
        #: Current virtual time; only :meth:`run` advances it.
        self.now = 0.0
        self.trace = MetricsTrace()
        self.events_processed = 0
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        #: Processes registered but not yet started.
        self._processes: list[Process] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], None], *, priority: int = 0
    ) -> None:
        """Schedule an event ``delay`` time units from now."""
        if delay < 0.0:
            raise SimulationError(f"cannot schedule into the past (delay {delay})")
        heapq.heappush(
            self._heap, (self.now + delay, priority, next(self._sequence), action)
        )

    def schedule_at(
        self, time: float, action: Callable[[], None], *, priority: int = 0
    ) -> None:
        """Schedule an event at an absolute virtual time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, the clock is already at {self.now}"
            )
        heapq.heappush(self._heap, (time, priority, next(self._sequence), action))

    def schedule_every(
        self,
        interval: float,
        action: Callable[[], None],
        *,
        start: float | None = None,
        priority: int = 0,
    ) -> None:
        """Schedule a periodic event; the first firing is at ``start``.

        The period keeps rescheduling itself after every firing, so it
        runs until the simulation horizon cuts it off.
        """
        if interval <= 0.0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")

        def fire() -> None:
            action()
            self.schedule(interval, fire, priority=priority)

        self.schedule_at(self.now if start is None else start, fire, priority=priority)

    # ------------------------------------------------------------------
    # Processes and the run loop
    # ------------------------------------------------------------------
    def add_process(self, process: Process) -> None:
        """Register a process; it starts when the next :meth:`run` begins."""
        self._processes.append(process)

    def run(self, until: float) -> MetricsTrace:
        """Run events in order until the horizon; returns the trace.

        Events scheduled exactly at the horizon still fire (so a final
        sampling pass at ``until`` is included in the trace).
        """
        if until < self.now:
            raise SimulationError(f"horizon {until} lies before current time {self.now}")
        processes, self._processes = self._processes, []
        for process in processes:
            process.start(self)
        heap = self._heap
        while heap and heap[0][0] <= until:
            self.now, _, _, action = heapq.heappop(heap)
            action()
            self.events_processed += 1
        self.now = until
        return self.trace

"""In-memory span recorder and the self-time arithmetic of traced runs.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the span
that was open when this one started (``None`` for the root), and every
span of one traced run carries the same ``run_id``.  The recorder keeps
spans in a list and writes them out once, when the run ends, so the only
cost inside the measured code is two clock reads and two list appends.

Spans come from the benchmark's own code: :meth:`Tracer.wrap` replaces a
layer's public function (or method) with a wrapper that opens a span
around each call.  Garbage collections are spans too (``runtime.gc``,
from :data:`gc.callbacks`), so a collection that interrupts a layer is
charged to the runtime and not to that layer.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (overlapping children are counted once).
Because every span nests inside its parent, the self times of all spans
of a run add up to the root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "layer_totals",
    "load_spans",
    "self_times",
    "union_length",
]


@dataclass
class Span:
    """One timed interval; ``parent`` is an index into the run's spans."""

    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """A span still being recorded (parent held by reference)."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "_Open | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """Records nested spans and per-name counts for one traced run."""

    def __init__(self, run_id: str, *, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.counts: dict[str, int] = defaultdict(int)
        self._clock = clock
        self._records: list[_Open] = []
        self._stack: list[_Open] = []
        self._gc_started: tuple[float, _Open | None] | None = None

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> _Open:
        record = _Open(name, self._clock(), self._stack[-1] if self._stack else None)
        self._stack.append(record)
        self._records.append(record)
        return record

    def close(self, record: _Open) -> None:
        record.end = self._clock()
        popped = self._stack.pop()
        if popped is not record:
            raise RuntimeError(f"span {record.name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`open`/:meth:`close`."""
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        count: Callable[["Tracer", Any, tuple, dict], None] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call; ``count`` sees the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(record)
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return traced

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += int(amount)

    # -- garbage collections as spans --------------------------------------
    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = (self._clock(), self._stack[-1] if self._stack else None)
            return
        if self._gc_started is None:
            return
        start, parent = self._gc_started
        self._gc_started = None
        record = _Open("runtime.gc", start, parent)
        record.end = self._clock()
        self._records.append(record)
        if info.get("generation") == 2:
            self.counts["runtime.gc_gen2"] += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Every closed span, parents as indices into the returned list."""
        if self._stack:
            raise RuntimeError(f"span {self._stack[-1].name!r} is still open")
        position = {id(record): i for i, record in enumerate(self._records)}
        return [
            Span(
                name=record.name,
                start=record.start,
                end=record.end,
                parent=None if record.parent is None else position[id(record.parent)],
                run_id=self.run_id,
            )
            for record in self._records
        ]

    def write(self, path: str) -> None:
        document = {
            "run_id": self.run_id,
            "spans": [
                [s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans()
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(document, stream)


def load_spans(path: str) -> tuple[list[Span], dict[str, int]]:
    """Read what :meth:`Tracer.write` wrote."""
    with open(path, encoding="utf-8") as stream:
        document = json.load(stream)
    spans = [Span(*row) for row in document["spans"]]
    return spans, {name: int(value) for name, value in document["counts"].items()}


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals (overlaps counted once)."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(index, ())
        )
        result.append(span.duration - covered)
    return result


def layer_totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """``{span name: {"self_s": summed self time, "calls": span count}}``."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry["self_s"] += own
        entry["calls"] += 1
    return dict(totals)

"""Structured metrics trace emitted by simulation runs.

Every process records :class:`TraceRecord` entries (virtual time, a kind
tag, and a flat JSON-serializable payload).  The trace doubles as the
reproducibility contract of the engine: two runs with the same seed must
produce byte-identical :meth:`MetricsTrace.to_jsonl` output, so all
payloads must be built from deterministic iteration orders (sort your
dicts and sets before recording).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceRecord:
    """One structured observation at a point in virtual time."""

    time: float
    kind: str
    data: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """Deterministic single-line JSON encoding."""
        payload = {"time": self.time, "kind": self.kind, **self.data}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class MetricsTrace:
    """Append-only trace of simulation observations."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other: object) -> bool:
        """Two traces are equal when they hold the same records in order.

        Value equality (rather than identity) is what lets results that
        embed a trace round-trip through their JSON envelopes and
        compare equal to the original.
        """
        if not isinstance(other, MetricsTrace):
            return NotImplemented
        return self._records == other._records

    # Keep the identity hash traces always had (record payloads are
    # dicts, so a value hash is not possible): containers that embed a
    # trace — the frozen ScenarioResult — stay hashable, at the price
    # that two equal traces may hash differently.  Don't key mappings
    # by trace expecting value semantics.
    __hash__ = object.__hash__

    def record(self, time: float, kind: str, **data: object) -> TraceRecord:
        """Append one observation and return it."""
        entry = TraceRecord(time=time, kind=kind, data=data)
        self._records.append(entry)
        return entry

    @classmethod
    def from_records(cls, records: "list[dict] | tuple[dict, ...]") -> "MetricsTrace":
        """Rebuild a trace from JSON-safe record dicts (envelope inverse).

        Each entry is the flat form :meth:`TraceRecord.to_json` encodes:
        ``time`` and ``kind`` plus the payload keys.
        """
        trace = cls()
        for entry in records:
            data = {k: v for k, v in entry.items() if k not in ("time", "kind")}
            trace.record(float(entry["time"]), str(entry["kind"]), **data)
        return trace

    #: The envelope codec's constructor hook (:mod:`repro.envelope`).
    from_json_value = from_records

    def to_json_value(self) -> list[dict[str, object]]:
        """The record dicts :meth:`from_records` takes (envelope form)."""
        return [{"time": r.time, "kind": r.kind, **r.data} for r in self._records]

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """All recorded observations in emission order."""
        return tuple(self._records)

    def of_kind(self, kind: str) -> tuple[TraceRecord, ...]:
        """All observations of one kind, in emission order."""
        return tuple(r for r in self._records if r.kind == kind)

    def kinds(self) -> dict[str, int]:
        """Number of observations per kind (sorted by kind)."""
        counts: dict[str, int] = defaultdict(int)
        for entry in self._records:
            counts[entry.kind] += 1
        return dict(sorted(counts.items()))

    def to_jsonl(self) -> str:
        """The whole trace as deterministic JSON lines.

        Byte-identical across runs with the same seed — tests and the
        CLI rely on this to prove reproducibility.
        """
        return "\n".join(entry.to_json() for entry in self._records) + "\n"

    # ------------------------------------------------------------------
    # Aggregations used by scenario summaries
    # ------------------------------------------------------------------
    def availability(self, architecture: str) -> float:
        """Mean availability ratio over all samples of one architecture."""
        ratios = [
            float(r.data["ratio"])
            for r in self.of_kind("availability_sample")
            if r.data.get("architecture") == architecture
        ]
        if not ratios:
            return 0.0
        return sum(ratios) / len(ratios)

    def architectures(self) -> tuple[str, ...]:
        """Architectures that produced availability samples (sorted)."""
        return tuple(
            sorted(
                {
                    str(r.data["architecture"])
                    for r in self.of_kind("availability_sample")
                }
            )
        )

    def revenue_by_as(self) -> dict[int, float]:
        """Cumulative billed revenue per AS over the whole run (sorted)."""
        totals: dict[int, float] = defaultdict(float)
        for entry in self.of_kind("billing"):
            for key, value in entry.data.items():
                if key.startswith("revenue_"):
                    totals[int(key.removeprefix("revenue_"))] += float(value)
        return dict(sorted(totals.items()))

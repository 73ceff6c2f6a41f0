"""Batched mixed-cohort negotiation over heterogeneous mechanisms.

The simulation lifecycle packs every negotiation due at one virtual
instant into a single flush.  In a homogeneous marketplace the whole
flush is one :meth:`~repro.bargaining.mechanism.BoscoService.negotiate_many`
call; in a heterogeneous population the cohort spans several published
mechanisms (one per distinct choice-set cardinality ``W``), so the
flush is decided as **order-preserving sub-batches**: entries are
grouped by mechanism key, each group runs one batched engine call, and
the outcomes are scattered back into request order.

:func:`decide_mixed_cohort` is contracted to be **bit-identical**, never
approximately equal, to the per-agent reference in
:mod:`repro.reference` (one scalar ``negotiate`` per entry); a property
test pins the equality and ``benchmarks/bench_marketplace.py`` asserts
the batched path's ≥2× speedup at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.bargaining.mechanism import (
    BoscoService,
    MechanismInformation,
    NegotiationOutcome,
)

__all__ = ["CohortEntry", "decide_mixed_cohort"]


@dataclass(frozen=True)
class CohortEntry:
    """One negotiation of a mixed cohort: mechanism key + both utilities.

    ``key`` selects the published mechanism (the lifecycle keys on the
    choice-set cardinality ``W``); utilities are already normalized
    into the mechanism's distribution support.
    """

    key: int
    utility_x: float
    utility_y: float


def _check_keys(
    mechanisms: Mapping[int, MechanismInformation], entries: Sequence[CohortEntry]
) -> None:
    unknown = {entry.key for entry in entries} - set(mechanisms)
    if unknown:
        raise ValueError(
            f"cohort references unpublished mechanism(s) {sorted(unknown)}; "
            f"published: {sorted(mechanisms)}"
        )


def decide_mixed_cohort(
    mechanisms: Mapping[int, MechanismInformation],
    entries: Sequence[CohortEntry],
) -> list[NegotiationOutcome]:
    """Decide a mixed cohort with one batched call per mechanism key.

    Outcomes are returned in entry order.  Each sub-batch preserves
    the relative order of its entries, and sub-batches are executed in
    sorted key order — the outcome of an entry depends only on its own
    mechanism and utilities, so grouping changes nothing but speed.
    """
    _check_keys(mechanisms, entries)
    groups: dict[int, list[int]] = {}
    for index, entry in enumerate(entries):
        groups.setdefault(entry.key, []).append(index)
    outcomes: list[NegotiationOutcome | None] = [None] * len(entries)
    for key in sorted(groups):
        indices = groups[key]
        batch = BoscoService.negotiate_many(
            mechanisms[key],
            [entries[i].utility_x for i in indices],
            [entries[i].utility_y for i in indices],
        )
        for index, outcome in zip(indices, batch):
            outcomes[index] = outcome
    return [outcome for outcome in outcomes if outcome is not None]

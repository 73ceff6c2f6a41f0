"""Path diversity from extension agreements (§III-B3).

Once a mutuality-based agreement is in force, the path segments it
creates can themselves be offered to further ASes: in the paper's
example, E gains the segment ``EDA`` from its agreement with D and can
offer that segment to its peer F, giving F the length-4 path ``FEDA``.
The paper leaves this open; the module counts the additional length-4
paths per AS (analogous to Fig. 3) when every segment's beneficiary
offers it to each peer not already on it.  The counts have a closed
form over the MA path index, so no extension agreement is built
(:mod:`repro.reference` enumerates them as the oracle):

- AS ``a`` gains ``(a, O, P, T)`` for each peer ``O`` and each direct
  row ``(O, P, T)`` of the index with ``a ∉ {P, T}``, so its count is
  ``Σ_{O ∈ peers(a)} |direct(O)| − |{rows of O with P = a or T = a}|``;
- each agreement, party ``X`` and segment ``X–Y–T`` it creates is
  offered to ``|peers(X) ∖ {Y, T}|`` peers.  This sums over the offers,
  not over the index's deduplicated rows: a segment that a second base
  agreement repeats is offered again.
"""

from __future__ import annotations

import numpy as np

from repro.agreements.agreement import Agreement
from repro.paths.ma_paths import MAPathIndex, build_ma_path_index
from repro.paths.metrics import summarize
from repro.topology.graph import ASGraph


def _extension_path_count(graph: ASGraph, index: MAPathIndex, asn: int) -> int:
    """Length-4 paths ``(asn, O, P, T)`` over the direct rows of ``asn``'s peers."""
    count = 0
    for peer in graph.peers(asn):
        rows = index.direct.ranges.get(peer, range(0))
        partner = index.asns[index.direct.partner[rows.start : rows.stop]]
        target = index.asns[index.direct.far[rows.start : rows.stop]]
        count += len(rows) - int(np.count_nonzero((partner == asn) | (target == asn)))
    return count


def _segment_offer_count(graph: ASGraph, agreement: Agreement) -> int:
    """``Σ |peers(X) ∖ {Y, T}|`` over the segments ``X–Y–T`` of one agreement."""
    count = 0
    for party, partner in (agreement.parties, agreement.parties[::-1]):
        targets = agreement.offer_by(partner).all_targets
        peers = graph.peers(party)
        count += len(targets) * (len(peers) - (partner in peers)) - len(targets & peers)
    return count


def analyze_extension_diversity(
    graph: ASGraph,
    base_agreements: list[Agreement],
    sample: tuple[int, ...],
) -> dict[str, float]:
    """Summary of the extra length-4 paths extension agreements provide.

    Returns the summary statistics over the sampled ASes plus the number
    of extension agreements considered, which is what the extension
    benchmark reports.
    """
    index = build_ma_path_index(base_agreements)
    summary = summarize([_extension_path_count(graph, index, asn) for asn in sample])
    summary["num_extension_agreements"] = float(
        sum(_segment_offer_count(graph, agreement) for agreement in base_agreements)
    )
    return summary

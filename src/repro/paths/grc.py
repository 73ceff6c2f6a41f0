"""GRC-conforming (valley-free) length-3 paths (§VI).

The paper's path-diversity analysis counts, per AS, the *length-3 paths*
(three ASes, two inter-AS links) available under the Gao–Rexford
conditions, and the destinations those paths reach ("nearby
destinations").  A path ``A – B – C`` is GRC-conforming exactly when the
transit AS ``B`` is willing to forward between ``A`` and ``C`` under a
GRC-conforming export policy, i.e. when at least one of ``A`` and ``C``
is a customer of ``B``.

Every query here delegates to the shared, per-graph-cached
:class:`repro.core.PathEngine`, which batch-computes all sources over
the compiled topology and memoizes per-source results — so repeated
queries (the common case in the §VI analyses) cost a dict lookup.  The
naive dict/set walk the property tests compare against lives in
:mod:`repro.reference`.
"""

from __future__ import annotations

from repro.core import path_engine_for
from repro.topology.graph import ASGraph


def is_grc_conforming_segment(graph: ASGraph, first: int, transit: int, last: int) -> bool:
    """Whether the transit AS would forward between ``first`` and ``last`` under the GRC."""
    customers = graph.customers(transit)
    return first in customers or last in customers


def grc_length3_paths(graph: ASGraph, source: int) -> frozenset[tuple[int, int, int]]:
    """All GRC-conforming length-3 paths starting at ``source``."""
    return path_engine_for(graph).paths(source)


def grc_length3_destinations(graph: ASGraph, source: int) -> frozenset[int]:
    """Destinations reachable from ``source`` over GRC-conforming length-3 paths."""
    return path_engine_for(graph).destinations(source)


def grc_paths_between(
    graph: ASGraph, source: int, destination: int
) -> frozenset[tuple[int, int, int]]:
    """GRC-conforming length-3 paths between a specific AS pair.

    By definition all length-3 paths between a fixed source and
    destination are disjoint (they only share the endpoints), a property
    the paper points out and the path-diversity tests verify.
    """
    return path_engine_for(graph).paths_between(source, destination)


def count_grc_length3_paths(graph: ASGraph, source: int) -> int:
    """Number of GRC-conforming length-3 paths starting at ``source``."""
    return path_engine_for(graph).count(source)

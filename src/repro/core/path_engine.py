"""Batched GRC length-3 path engine over a :class:`CompiledTopology`.

The §VI analyses all consume the same primitive: the GRC-conforming
length-3 paths ``(source, transit, destination)`` of every AS — a path
is conforming exactly when the transit is willing to forward, i.e. when
``source ∈ γ(transit)`` or ``destination ∈ γ(transit)``.  The naive
reference in :mod:`repro.reference` re-walks the dict/set graph per
source; this engine instead computes *all* sources in one batched sweep
over the compiled CSR arrays:

- **Counts** — the number of paths of source ``s`` decomposes per
  transit ``t ∈ N(s)``: ``|N(t)| - 1`` paths when ``s ∈ γ(t)`` (the
  transit exports everything to its customer) and ``|γ(t)|`` paths
  otherwise (only customer destinations are exported).  Whether
  ``s ∈ γ(t)`` is one vectorized comparison on the compiled per-edge
  role codes (``s`` is a customer of ``t`` exactly when ``t`` is a
  provider of ``s``), so every per-source count falls out of a single
  O(links) pass — no membership matrix of any kind.
- **Destination sets** — the same decomposition as a boolean union:
  ``dest(s) = ⋃ N(t)`` over customer transits ``∪ ⋃ γ(t)`` over the
  rest, minus ``s`` itself.  The all-sources pass is *blocked*: sources
  are processed in contiguous ranges sized to a fixed byte budget
  (:data:`DEFAULT_BLOCK_BYTES`), so peak memory is ``O(block × n)``
  bytes regardless of topology size — a full-Internet snapshot never
  allocates an n×n matrix.  Within a block the per-transit rows are
  gathered with one vectorized CSR multi-row scatter.
- **Path sets** — materialized lazily per source (they are the only
  O(paths) product) and memoized.

The blocked range methods (:meth:`PathEngine.counts_range`,
:meth:`PathEngine.destination_counts_range`) are also the sharding
surface of the all-sources GRC pass (:mod:`repro.paths.grc_all`):
per-source results are independent, so contiguous source ranges can be
computed in separate processes against the same memory-mapped topology
artifact and concatenated in range order — byte-identical to one
sequential pass.

Results are memoized per source; :meth:`PathEngine.refresh` implements
the dirty-region invalidation contract used under topology churn: only
sources whose path set can have changed are dropped, everything else is
carried over (an AS's paths depend only on its 2-hop neighborhood, so a
changed link ``a – b`` can only affect ``{a, b} ∪ N(a) ∪ N(b)``).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.compiled import (
    ROLE_PROVIDER,
    CompiledTopology,
    compile_topology,
)
from repro.topology.graph import ASGraph

#: Byte budget of one destination block: a block covers
#: ``DEFAULT_BLOCK_BYTES // n`` sources (at least one), so the blocked
#: all-sources destination sweep peaks at roughly this many bytes of
#: boolean matrix no matter how large the topology is.
DEFAULT_BLOCK_BYTES = 16 * 1024 * 1024


def _gather_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    owners: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gather several CSR rows at once.

    For each ``rows[k]``, emits every value of that CSR row paired with
    ``owners[k]``; returns ``(owner_per_value, values)``.  This is the
    vectorized replacement for the per-row Python loop: one ``repeat`` +
    one ``arange`` + one fancy index regardless of how many rows are
    gathered.
    """
    starts = indptr[rows]
    lens = (indptr[rows + 1] - starts).astype(np.int64, copy=False)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=owners.dtype), np.empty(0, dtype=indices.dtype)
    ends = np.cumsum(lens)
    positions = np.arange(total, dtype=np.int64)
    positions -= np.repeat(ends - lens, lens)
    positions += np.repeat(starts.astype(np.int64, copy=False), lens)
    return np.repeat(owners, lens), indices[positions]


class PathEngine:
    """All-sources GRC length-3 path queries with per-source memoization.

    The engine exposes the :mod:`repro.paths.grc` vocabulary on top of a
    :class:`CompiledTopology`: :meth:`paths`, :meth:`destinations`,
    :meth:`count`, and :meth:`paths_between` match the semantics of
    ``grc_length3_paths``, ``grc_length3_destinations``,
    ``count_grc_length3_paths``, and ``grc_paths_between`` exactly (the
    property tests assert set-level equality against the naive
    reference).  ``block_bytes`` bounds the peak memory of the blocked
    all-sources destination sweep; the default suits everything from
    paper scale to full CAIDA snapshots.
    """

    def __init__(
        self, topology: CompiledTopology, *, block_bytes: int | None = None
    ) -> None:
        self._topo = topology
        self.block_bytes = DEFAULT_BLOCK_BYTES if block_bytes is None else block_bytes
        self._path_memo: dict[int, frozenset[tuple[int, int, int]]] = {}
        self._dest_memo: dict[int, frozenset[int]] = {}
        self._reset_batches()

    @property
    def topology(self) -> CompiledTopology:
        """The compiled topology the engine currently answers for."""
        return self._topo

    def _reset_batches(self) -> None:
        self._counts: np.ndarray | None = None
        self._dest_counts: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Invalidation / rebuild contract
    # ------------------------------------------------------------------
    def refresh(
        self,
        topology: CompiledTopology,
        *,
        dirty_sources: set[int] | frozenset[int] | None = None,
    ) -> None:
        """Swap in a newly compiled topology.

        ``dirty_sources`` is the set of source ASNs whose results may
        have changed; their memoized entries are dropped while all other
        per-source results are carried over.  ``None`` means "unknown
        extent" and clears everything.  Callers are responsible for the
        dirty set being a superset of the truly affected sources — the
        dynamic-network layer derives it from the endpoints and
        neighborhoods of the churned links.
        """
        if dirty_sources is None:
            self._path_memo.clear()
            self._dest_memo.clear()
        else:
            for asn in dirty_sources:
                self._path_memo.pop(asn, None)
                self._dest_memo.pop(asn, None)
        self._topo = topology
        self._reset_batches()

    # ------------------------------------------------------------------
    # Batched sweeps
    # ------------------------------------------------------------------
    def block_size(self) -> int:
        """Sources per destination block under the byte budget."""
        n = self._topo.n
        return max(1, self.block_bytes // max(n, 1))

    def counts_range(self, lo: int, hi: int) -> np.ndarray:
        """Path counts of the contiguous source range ``[lo, hi)``.

        One vectorized pass over the range's adjacency slice; sharded
        callers concatenate ranges in order and obtain the exact
        sequential all-sources array.
        """
        topo = self._topo
        width = hi - lo
        if width <= 0:
            return np.zeros(0, dtype=np.int64)
        e0 = int(topo.nbr_indptr[lo])
        e1 = int(topo.nbr_indptr[hi])
        transits = topo.nbr_indices[e0:e1]
        # s ∈ γ(t)  ⟺  t plays the provider role for s.
        source_is_customer = topo.nbr_roles[e0:e1] == ROLE_PROVIDER
        sources_rel = np.repeat(
            np.arange(width), np.diff(topo.nbr_indptr[lo:hi + 1])
        )
        contributions = np.where(
            source_is_customer,
            topo.degrees[transits] - 1,
            topo.customer_counts[transits],
        )
        return np.bincount(
            sources_rel, weights=contributions, minlength=width
        ).astype(np.int64)

    def _destination_block(self, lo: int, hi: int) -> np.ndarray:
        """Boolean destination matrix of sources ``[lo, hi)`` (rows × n)."""
        topo = self._topo
        width = hi - lo
        block = np.zeros((width, topo.n), dtype=bool)
        e0 = int(topo.nbr_indptr[lo])
        e1 = int(topo.nbr_indptr[hi])
        transits = topo.nbr_indices[e0:e1]
        roles = topo.nbr_roles[e0:e1]
        sources_rel = np.repeat(
            np.arange(width), np.diff(topo.nbr_indptr[lo:hi + 1])
        )
        customer_edge = roles == ROLE_PROVIDER
        for mask, indptr, indices in (
            (customer_edge, topo.nbr_indptr, topo.nbr_indices),
            (~customer_edge, topo.cust_indptr, topo.cust_indices),
        ):
            owners, values = _gather_rows(
                indptr, indices, transits[mask], sources_rel[mask]
            )
            block[owners, values] = True
        block[np.arange(width), np.arange(lo, hi)] = False
        return block

    def destination_counts_range(self, lo: int, hi: int) -> np.ndarray:
        """Destination counts of the source range ``[lo, hi)``, blocked.

        Peak memory is bounded by ``block_bytes`` — blocks of
        :meth:`block_size` sources are materialized one at a time and
        reduced to their row sums immediately.
        """
        if hi <= lo:
            return np.zeros(0, dtype=np.int64)
        step = self.block_size()
        chunks = []
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            chunks.append(self._destination_block(start, stop).sum(axis=1))
        return np.concatenate(chunks).astype(np.int64)

    def _counts_array(self) -> np.ndarray:
        if self._counts is None:
            self._counts = self.counts_range(0, self._topo.n)
        return self._counts

    def _dest_counts_array(self) -> np.ndarray:
        if self._dest_counts is None:
            self._dest_counts = self.destination_counts_range(0, self._topo.n)
        return self._dest_counts

    def _destination_indices(self, index: int) -> np.ndarray:
        """Destination indices of one source (single-row union sweep)."""
        topo = self._topo
        transits = topo.neighbors_idx(index)
        roles = topo.neighbor_roles_idx(index)
        rows = []
        for t, role in zip(transits, roles):
            t = int(t)
            if role == ROLE_PROVIDER:
                rows.append(topo.neighbors_idx(t))
            else:
                rows.append(topo.customers_idx(t))
        if not rows:
            return np.empty(0, dtype=np.int32)
        merged = np.unique(np.concatenate(rows))
        return merged[merged != index]

    # ------------------------------------------------------------------
    # Per-source queries (grc.py semantics)
    # ------------------------------------------------------------------
    def count(self, source: int) -> int:
        """Number of GRC length-3 paths starting at ``source``."""
        return int(self._counts_array()[self._topo.index_of(source)])

    def destination_count(self, source: int) -> int:
        """Number of destinations reachable from ``source``."""
        return int(self._dest_counts_array()[self._topo.index_of(source)])

    def counts_by_source(self) -> dict[int, int]:
        """``{source ASN: path count}`` for every AS, in sorted ASN order."""
        counts = self._counts_array()
        return {asn: int(counts[i]) for i, asn in enumerate(self._topo.asns)}

    def destination_counts_by_source(self) -> dict[int, int]:
        """``{source ASN: destination count}`` for every AS."""
        counts = self._dest_counts_array()
        return {asn: int(counts[i]) for i, asn in enumerate(self._topo.asns)}

    def destinations(self, source: int) -> frozenset[int]:
        """Destinations reachable from ``source`` over GRC length-3 paths."""
        memo = self._dest_memo.get(source)
        if memo is None:
            topo = self._topo
            indices = self._destination_indices(topo.index_of(source))
            memo = frozenset(int(asn) for asn in topo.asn_array[indices])
            self._dest_memo[source] = memo
        return memo

    def paths(self, source: int) -> frozenset[tuple[int, int, int]]:
        """All GRC length-3 paths starting at ``source`` (memoized)."""
        memo = self._path_memo.get(source)
        if memo is None:
            topo = self._topo
            s = topo.index_of(source)
            asn = topo.asn_array
            collected: list[tuple[int, int, int]] = []
            for t, role in zip(topo.neighbors_idx(s), topo.neighbor_roles_idx(s)):
                t = int(t)
                transit_asn = int(asn[t])
                if role == ROLE_PROVIDER:
                    dests = topo.neighbors_idx(t)
                else:
                    dests = topo.customers_idx(t)
                for d in dests:
                    if d != s:
                        collected.append((source, transit_asn, int(asn[d])))
            memo = frozenset(collected)
            self._path_memo[source] = memo
        return memo

    def paths_between(
        self, source: int, destination: int
    ) -> frozenset[tuple[int, int, int]]:
        """GRC length-3 paths between a specific AS pair (O(deg(source)))."""
        topo = self._topo
        s = topo.index_of(source)
        d = topo.index_of(destination)
        if s == d:
            return frozenset()
        found = []
        asn = topo.asn_array
        for t, role in zip(topo.neighbors_idx(s), topo.neighbor_roles_idx(s)):
            t = int(t)
            if t == d or not topo.has_link_idx(t, d):
                continue
            if role == ROLE_PROVIDER or topo.is_customer_idx(t, d):
                found.append((source, int(asn[t]), destination))
        return frozenset(found)

    def is_grc_path(self, source: int, transit: int, destination: int) -> bool:
        """Whether ``(source, transit, destination)`` is a GRC length-3 path."""
        topo = self._topo
        s = topo.index_of(source)
        t = topo.index_of(transit)
        d = topo.index_of(destination)
        if len({s, t, d}) != 3:
            return False
        if not (topo.has_link_idx(s, t) and topo.has_link_idx(t, d)):
            return False
        return topo.is_customer_idx(t, s) or topo.is_customer_idx(t, d)


#: Per-graph engine cache, weakly keyed like the compile cache.
_ENGINE_CACHE: "weakref.WeakKeyDictionary[ASGraph, PathEngine]" = (
    weakref.WeakKeyDictionary()
)


def path_engine_for(graph: ASGraph) -> PathEngine:
    """Shared engine for a graph, recompiled transparently on mutation.

    This is what lets the :mod:`repro.paths.grc` module-level API keep
    its ``(graph, source)`` signature while every consumer shares one
    compiled topology and one memo per graph.  A mutation between calls
    triggers a full refresh (no dirty-region knowledge at this level —
    the dynamic-network layer, which does know the churned links, calls
    :meth:`PathEngine.refresh` with an explicit dirty set instead).
    """
    compiled = compile_topology(graph)
    engine = _ENGINE_CACHE.get(graph)
    if engine is None:
        engine = PathEngine(compiled)
        _ENGINE_CACHE[graph] = engine
    elif engine.topology is not compiled:
        engine.refresh(compiled)
    return engine

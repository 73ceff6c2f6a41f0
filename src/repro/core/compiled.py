"""Compiled, index-based view of the mixed AS graph ``G = (A, L_peer, L_pc)``.

:class:`repro.topology.graph.ASGraph` stores the §III-A mixed graph as
dicts of Python sets, which is ideal for incremental construction but
slow to traverse repeatedly: every analysis pass re-allocates frozensets
and re-hashes ASNs.  :class:`CompiledTopology` freezes one mutation
state of an ``ASGraph`` into contiguous arrays:

- **Interning** — ASNs are mapped to dense indices ``0 … n-1`` in sorted
  ASN order, so any per-AS quantity becomes a flat array.
- **CSR adjacency** — the neighbor set ``π(X) ∪ ε(X) ∪ γ(X)`` and the
  per-role sets ``π(X)`` (providers), ``ε(X)`` (peers), ``γ(X)``
  (customers) of every AS are stored as index arrays with row pointers
  (compressed sparse rows), each row sorted ascending.
- **Edge role codes** — :attr:`CompiledTopology.nbr_roles` stores, per
  directed adjacency slot, the role the *neighbor* plays for the row AS
  (:data:`ROLE_PROVIDER` / :data:`ROLE_PEER` / :data:`ROLE_CUSTOMER`),
  so batched sweeps answer "is the source a customer of this transit"
  with one vectorized comparison instead of per-pair set lookups.
- **O(log deg) role tests** — membership tests binary-search the sorted
  CSR rows; no Python pair sets are materialized, which keeps a view
  loadable zero-copy from memory-mapped array files
  (:mod:`repro.core.artifacts`).

A compiled view is immutable, and every array is either built in memory
or memory-mapped read-only from an on-disk artifact — consumers cannot
tell the difference (the property tests assert exactly that).

There are two provenance modes:

- **Graph-backed** views (built by :meth:`CompiledTopology.compile` /
  :func:`compile_topology`) remember the source graph's
  :attr:`ASGraph.mutation_count` and report staleness via
  :meth:`CompiledTopology.is_stale`; callers obtain a fresh (or cached)
  view through :func:`compile_topology`, which rebuilds exactly when
  the graph has mutated.  The dynamic-network layer
  (:mod:`repro.simulation.network`) builds on this contract to
  recompile on link churn while preserving work for the unaffected
  region.
- **Detached** views (streamed from as-rel lines by
  :mod:`repro.core.streaming`, or loaded from an artifact by
  :mod:`repro.core.artifacts`) have no live source graph.  They are
  never stale — their identity *is* their content fingerprint, and the
  cross-process staleness contract is fingerprint equality: an artifact
  is valid for exactly the byte-identical topology content it was
  compiled from.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.topology.graph import ASGraph, TopologyError
from repro.topology.relationships import Role

#: ``nbr_roles`` codes: the role the neighbor plays for the row AS.
ROLE_PROVIDER = np.int8(1)
ROLE_PEER = np.int8(2)
ROLE_CUSTOMER = np.int8(3)

_ROLE_BY_CODE = {
    int(ROLE_PROVIDER): Role.PROVIDER,
    int(ROLE_PEER): Role.PEER,
    int(ROLE_CUSTOMER): Role.CUSTOMER,
}

#: The array attributes that define a compiled view's content, in the
#: canonical serialization order of :mod:`repro.core.artifacts`.
ARRAY_FIELDS = (
    "asn_array",
    "prov_indptr",
    "prov_indices",
    "peer_indptr",
    "peer_indices",
    "cust_indptr",
    "cust_indices",
    "nbr_indptr",
    "nbr_indices",
    "nbr_roles",
)


def _csr(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-index adjacency rows into (indptr, indices) CSR arrays."""
    lengths = np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows))
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    if indptr[-1] == 0:
        return indptr, np.empty(0, dtype=np.int32)
    indices = np.concatenate([np.asarray(row, dtype=np.int32) for row in rows if row])
    return indptr, indices


def _row_contains(indptr: np.ndarray, indices: np.ndarray, row: int, value: int) -> bool:
    """Whether a sorted CSR row contains ``value`` (binary search)."""
    lo = int(indptr[row])
    hi = int(indptr[row + 1])
    pos = lo + int(np.searchsorted(indices[lo:hi], value))
    return pos < hi and int(indices[pos]) == value


class CompiledTopology:
    """An immutable array-compiled snapshot of one :class:`ASGraph` state.

    Build via :meth:`compile` (or the cached :func:`compile_topology`)
    from a graph, via :meth:`from_arrays` from pre-built CSR arrays
    (the streaming and memory-mapped artifact paths).  All index-level
    accessors return read-only numpy slices; the ``*_set`` accessors
    return cached frozensets of ASNs for call sites that need Python
    set algebra without re-allocating per call.
    """

    def __init__(self, graph: ASGraph) -> None:
        asns = sorted(graph.ases)
        index = {asn: i for i, asn in enumerate(asns)}

        prov_rows: list[list[int]] = []
        peer_rows: list[list[int]] = []
        cust_rows: list[list[int]] = []
        nbr_rows: list[list[int]] = []
        role_rows: list[np.ndarray] = []
        for asn in asns:
            providers = sorted(index[p] for p in graph.providers(asn))
            peers = sorted(index[p] for p in graph.peers(asn))
            customers = sorted(index[c] for c in graph.customers(asn))
            prov_rows.append(providers)
            peer_rows.append(peers)
            cust_rows.append(customers)
            merged = providers + peers + customers
            codes = np.empty(len(merged), dtype=np.int8)
            codes[: len(providers)] = ROLE_PROVIDER
            codes[len(providers):len(providers) + len(peers)] = ROLE_PEER
            codes[len(providers) + len(peers):] = ROLE_CUSTOMER
            merged_array = np.asarray(merged, dtype=np.int32)
            # The three role groups are disjoint, so a stable sort of
            # the concatenation yields the ascending neighbor row with
            # its role codes carried along.
            order = np.argsort(merged_array, kind="stable")
            nbr_rows.append([int(v) for v in merged_array[order]])
            role_rows.append(codes[order])

        prov_indptr, prov_indices = _csr(prov_rows)
        peer_indptr, peer_indices = _csr(peer_rows)
        cust_indptr, cust_indices = _csr(cust_rows)
        nbr_indptr, nbr_indices = _csr(nbr_rows)
        nbr_roles = (
            np.concatenate(role_rows)
            if role_rows and nbr_indices.size
            else np.empty(0, dtype=np.int8)
        )
        self._init_from_arrays(
            asn_array=np.asarray(asns, dtype=np.int64),
            prov_indptr=prov_indptr,
            prov_indices=prov_indices,
            peer_indptr=peer_indptr,
            peer_indices=peer_indices,
            cust_indptr=cust_indptr,
            cust_indices=cust_indices,
            nbr_indptr=nbr_indptr,
            nbr_indices=nbr_indices,
            nbr_roles=nbr_roles,
        )
        self.source_mutation_count = graph.mutation_count
        self._source_ref = weakref.ref(graph)
        self._detached = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _init_from_arrays(self, **arrays: np.ndarray) -> None:
        """Bind the content arrays and derived state (shared by all paths)."""
        for name in ARRAY_FIELDS:
            array = arrays[name]
            if array.flags.writeable:
                array.setflags(write=False)
            setattr(self, name, array)
        n = len(self.asn_array)
        self.n = n
        self.asns: tuple[int, ...] = tuple(int(a) for a in self.asn_array)
        self._index: dict[int, int] = {asn: i for i, asn in enumerate(self.asns)}
        self.degrees = np.diff(self.nbr_indptr)
        self.customer_counts = np.diff(self.cust_indptr)
        # Every link contributes two directed adjacency slots.
        self.num_links = int(self.nbr_indptr[-1]) // 2
        self._source_fingerprint: str | None = None
        self._source_ref: weakref.ref[ASGraph] | None = None
        self._detached = True
        self.source_mutation_count = 0
        # Lazily filled frozenset views (ASN-level), one slot per index.
        self._nbr_sets: list[frozenset[int] | None] = [None] * n
        self._cust_sets: list[frozenset[int] | None] = [None] * n
        self._peer_sets: list[frozenset[int] | None] = [None] * n
        self._prov_sets: list[frozenset[int] | None] = [None] * n

    @classmethod
    def compile(cls, graph: ASGraph) -> "CompiledTopology":
        """Compile a fresh immutable view of the graph's current state."""
        return cls(graph)

    @classmethod
    def from_arrays(
        cls,
        *,
        source_fingerprint: str,
        **arrays: np.ndarray,
    ) -> "CompiledTopology":
        """Build a *detached* view directly from CSR arrays.

        This is the constructor of the streaming-ingestion and
        memory-mapped artifact paths: the arrays (one per name in
        :data:`ARRAY_FIELDS`) are adopted as-is — zero-copy, so
        ``np.load(..., mmap_mode="r")`` results stay memory-mapped —
        and ``source_fingerprint`` records the content digest of the
        topology they describe.  Detached views have no source graph
        and are never stale; cache validity is fingerprint equality.
        """
        missing = [name for name in ARRAY_FIELDS if name not in arrays]
        if missing:
            raise ValueError(f"missing compiled arrays: {', '.join(missing)}")
        self = cls.__new__(cls)
        self._init_from_arrays(**{name: arrays[name] for name in ARRAY_FIELDS})
        self._source_fingerprint = source_fingerprint
        return self

    # ------------------------------------------------------------------
    # Invalidation contract
    # ------------------------------------------------------------------
    @property
    def detached(self) -> bool:
        """Whether this view was built without a live source graph."""
        return self._detached

    @property
    def source_fingerprint(self) -> str:
        """Content digest of the source topology at compile time.

        Together with :attr:`source_mutation_count` this extends the
        staleness contract across process boundaries: on-disk caches
        (sweep shards, topology artifacts) stamp results with the
        fingerprint, so a cache hit is guaranteed to describe
        byte-identical topology content.

        For graph-backed views the digest is computed lazily on first
        access — churn-driven recompiles (the simulation hot path)
        never pay for the hash — and only while the source graph is
        alive and unmutated, so the digest can never describe different
        content than the compiled arrays.  Detached views (streamed or
        artifact-loaded) carry their fingerprint from birth.
        """
        if self._source_fingerprint is None:
            graph = self._source_ref() if self._source_ref is not None else None
            if graph is None or graph.mutation_count != self.source_mutation_count:
                raise RuntimeError(
                    "source graph is gone or has mutated since compilation; "
                    "its fingerprint can no longer be derived"
                )
            self._source_fingerprint = graph.content_fingerprint()
        return self._source_fingerprint

    def is_stale(self, graph: ASGraph | None = None) -> bool:
        """Whether the source graph has mutated since compilation.

        With no argument, checks against the original source graph (a
        garbage-collected source counts as stale); pass a graph to check
        against it explicitly.  Detached views are never stale — they
        have no mutable source; their validity is governed by the
        fingerprint contract instead.
        """
        if graph is None:
            if self._detached:
                return False
            graph = self._source_ref() if self._source_ref is not None else None
            if graph is None:
                return True
        return graph.mutation_count != self.source_mutation_count

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def index_of(self, asn: int) -> int:
        """Dense index of an ASN (raises :class:`TopologyError` if unknown)."""
        try:
            return self._index[asn]
        except KeyError:
            raise TopologyError(f"unknown AS: {asn}") from None

    def asn_of(self, index: int) -> int:
        """ASN at a dense index."""
        return self.asns[index]

    def __contains__(self, asn: int) -> bool:
        return asn in self._index

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Index-level adjacency (numpy views)
    # ------------------------------------------------------------------
    def neighbors_idx(self, index: int) -> np.ndarray:
        """Sorted neighbor indices of the AS at ``index``."""
        return self.nbr_indices[self.nbr_indptr[index]:self.nbr_indptr[index + 1]]

    def neighbor_roles_idx(self, index: int) -> np.ndarray:
        """Role codes aligned with :meth:`neighbors_idx` for ``index``."""
        return self.nbr_roles[self.nbr_indptr[index]:self.nbr_indptr[index + 1]]

    def customers_idx(self, index: int) -> np.ndarray:
        """Sorted customer indices (``γ``) of the AS at ``index``."""
        return self.cust_indices[self.cust_indptr[index]:self.cust_indptr[index + 1]]

    # ------------------------------------------------------------------
    # Role / membership tests (binary search over sorted CSR rows)
    # ------------------------------------------------------------------
    def is_customer_idx(self, owner: int, candidate: int) -> bool:
        """Whether ``candidate`` is a customer of ``owner`` (dense indices)."""
        return _row_contains(self.cust_indptr, self.cust_indices, owner, candidate)

    def has_link_idx(self, left: int, right: int) -> bool:
        """Whether any link joins the two dense indices."""
        return _row_contains(self.nbr_indptr, self.nbr_indices, left, right)

    def is_customer(self, owner: int, candidate: int) -> bool:
        """Whether AS ``candidate`` is in ``γ(owner)`` (ASN-level)."""
        return self.is_customer_idx(self.index_of(owner), self.index_of(candidate))

    def has_link(self, left: int, right: int) -> bool:
        """Whether any link joins the two ASes (ASN-level)."""
        return self.has_link_idx(self.index_of(left), self.index_of(right))

    def role_of(self, asn: int, neighbor: int) -> Role:
        """Role ``neighbor`` plays for ``asn``, mirroring :meth:`ASGraph.role_of`."""
        u = self.index_of(asn)
        v = self.index_of(neighbor)
        lo = int(self.nbr_indptr[u])
        hi = int(self.nbr_indptr[u + 1])
        pos = lo + int(np.searchsorted(self.nbr_indices[lo:hi], v))
        if pos >= hi or int(self.nbr_indices[pos]) != v:
            raise TopologyError(f"AS {neighbor} is not a neighbor of AS {asn}")
        return _ROLE_BY_CODE[int(self.nbr_roles[pos])]

    def degree(self, asn: int) -> int:
        """Total number of neighbors of an AS."""
        return int(self.degrees[self.index_of(asn)])

    # ------------------------------------------------------------------
    # ASN-level cached set views
    # ------------------------------------------------------------------
    def _set_view(
        self,
        cache: list[frozenset[int] | None],
        indptr: np.ndarray,
        indices: np.ndarray,
        asn: int,
    ) -> frozenset[int]:
        i = self.index_of(asn)
        view = cache[i]
        if view is None:
            row = indices[indptr[i]:indptr[i + 1]]
            view = frozenset(int(self.asn_array[j]) for j in row)
            cache[i] = view
        return view

    def neighbors(self, asn: int) -> frozenset[int]:
        """All neighbors of an AS (cached frozenset of ASNs)."""
        return self._set_view(self._nbr_sets, self.nbr_indptr, self.nbr_indices, asn)

    def customers(self, asn: int) -> frozenset[int]:
        """The customer set ``γ(X)`` (cached frozenset of ASNs)."""
        return self._set_view(self._cust_sets, self.cust_indptr, self.cust_indices, asn)

    def peers(self, asn: int) -> frozenset[int]:
        """The peer set ``ε(X)`` (cached frozenset of ASNs)."""
        return self._set_view(self._peer_sets, self.peer_indptr, self.peer_indices, asn)

    def providers(self, asn: int) -> frozenset[int]:
        """The provider set ``π(X)`` (cached frozenset of ASNs)."""
        return self._set_view(self._prov_sets, self.prov_indptr, self.prov_indices, asn)

    def same_arrays(self, other: "CompiledTopology") -> bool:
        """Whether two views have element-identical content arrays.

        This is the equivalence the streaming and artifact paths are
        contracted to: a streamed/loaded view is *indistinguishable*
        from a graph compile of the same content.
        """
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ARRAY_FIELDS
        )

    def __repr__(self) -> str:
        return (
            f"CompiledTopology(ases={self.n}, links={self.num_links}, "
            f"source_mutation_count={self.source_mutation_count})"
        )


#: Per-graph compile cache.  Weakly keyed so snapshots (e.g. the rolling
#: active graphs of a DynamicNetwork) do not accumulate.
_COMPILE_CACHE: "weakref.WeakKeyDictionary[ASGraph, CompiledTopology]" = (
    weakref.WeakKeyDictionary()
)


def compile_topology(graph: ASGraph) -> CompiledTopology:
    """Return a compiled view of the graph, rebuilding only when stale.

    This is the canonical entry point of the invalidation contract:
    repeated calls on an unmutated graph return the same object, and the
    first call after any mutation compiles a fresh view.
    """
    compiled = _COMPILE_CACHE.get(graph)
    if compiled is None or compiled.is_stale(graph):
        compiled = CompiledTopology.compile(graph)
        _COMPILE_CACHE[graph] = compiled
    return compiled

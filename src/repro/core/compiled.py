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

A compiled view is nothing but these arrays.  One CSR builder,
:func:`compile_links`, makes them from interned link endpoints, whether
the links come from an ``ASGraph`` (:func:`compile_topology`) or straight
from as-rel lines (:mod:`repro.core.streaming`); artifact loads
(:mod:`repro.core.artifacts`) memory-map them read-only.  Consumers
cannot tell the three apart (the property tests assert exactly that).
The view's :attr:`~CompiledTopology.source_fingerprint` is a digest of
the arrays themselves, so it needs no source graph and cannot fail.
Whether a view still describes a mutable graph is
``compile_topology(graph) is view``: the compile cache rebuilds exactly
when the graph's :attr:`~repro.topology.graph.ASGraph.mutation_count`
has moved, which is what the dynamic-network layer
(:mod:`repro.simulation.network`) relies on to recompile on link churn.
"""

from __future__ import annotations

import hashlib
import weakref

import numpy as np

from repro.topology.graph import ASGraph, TopologyError
from repro.topology.relationships import Relationship, Role

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


def _row_contains(indptr: np.ndarray, indices: np.ndarray, row: int, value: int) -> bool:
    """Whether a sorted CSR row contains ``value`` (binary search)."""
    lo = int(indptr[row])
    hi = int(indptr[row + 1])
    pos = lo + int(np.searchsorted(indices[lo:hi], value))
    return pos < hi and int(indices[pos]) == value


class CompiledTopology:
    """An immutable array-compiled snapshot of one topology state.

    Build via :func:`compile_topology` from a graph, via
    :func:`compile_links` from link endpoints, or directly from the
    :data:`ARRAY_FIELDS` arrays (the artifact path).  All index-level
    accessors return read-only numpy slices; the ``*_set`` accessors
    return cached frozensets of ASNs for call sites that need Python
    set algebra without re-allocating per call.
    """

    def __init__(
        self, *, source_fingerprint: str | None = None, **arrays: np.ndarray
    ) -> None:
        """Adopt one array per name in :data:`ARRAY_FIELDS` as-is.

        Arrays are taken zero-copy, so ``np.load(..., mmap_mode="r")``
        results stay memory-mapped.  ``source_fingerprint`` lets an
        artifact load adopt the digest recorded beside its arrays;
        otherwise it is derived from the arrays on first access.
        """
        missing = [name for name in ARRAY_FIELDS if name not in arrays]
        if missing:
            raise ValueError(f"missing compiled arrays: {', '.join(missing)}")
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
        self._source_fingerprint = source_fingerprint
        # Lazily filled frozenset views (ASN-level), one slot per index.
        self._nbr_sets: list[frozenset[int] | None] = [None] * n
        self._cust_sets: list[frozenset[int] | None] = [None] * n
        self._peer_sets: list[frozenset[int] | None] = [None] * n
        self._prov_sets: list[frozenset[int] | None] = [None] * n

    @property
    def source_fingerprint(self) -> str:
        """SHA-256 hex digest of the topology content the arrays describe.

        The digest hashes ``A {asn}`` per AS in ascending ASN order, then
        ``L {first} {second} {rel}`` per link in ascending (lower ASN,
        higher ASN) order, with the provider first and ``rel = -1`` on
        transit links and the lower ASN first and ``rel = 0`` on peering
        links.  It is a function of the arrays alone, so views with
        element-identical arrays — compiled from a graph, streamed from
        as-rel lines, or loaded from an artifact — share one
        fingerprint, and on-disk caches (sweep shards, topology
        artifacts, grc-all output) keyed by it describe exactly this
        content.  Computed on first access, so churn-driven recompiles
        never pay for the hash.
        """
        if self._source_fingerprint is None:
            rows = np.repeat(np.arange(self.n), self.degrees)
            upper = self.nbr_indices > rows
            lower, higher = rows[upper], self.nbr_indices[upper]
            roles = self.nbr_roles[upper]
            provider_higher = roles == ROLE_PROVIDER
            firsts = self.asn_array[np.where(provider_higher, higher, lower)]
            seconds = self.asn_array[np.where(provider_higher, lower, higher)]
            rels = np.where(roles == ROLE_PEER, 0, -1)
            lines = [f"A {asn}\n" for asn in self.asn_array.tolist()]
            lines += [
                f"L {first} {second} {rel}\n"
                for first, second, rel in zip(firsts.tolist(), seconds.tolist(), rels.tolist())
            ]
            digest = hashlib.sha256("".join(lines).encode())
            self._source_fingerprint = digest.hexdigest()
        return self._source_fingerprint

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
        """Whether two views have element- and dtype-identical arrays.

        This is the equivalence the streaming and artifact paths are
        contracted to: a streamed/loaded view is *indistinguishable*
        from a graph compile of the same content.
        """
        return all(
            getattr(self, name).dtype == getattr(other, name).dtype
            and np.array_equal(getattr(self, name), getattr(other, name))
            for name in ARRAY_FIELDS
        )

    def __repr__(self) -> str:
        return f"CompiledTopology(ases={self.n}, links={self.num_links})"


def _csr_from_edges(
    owners: np.ndarray,
    neighbors: np.ndarray,
    n: int,
    roles: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (indptr, sorted indices[, aligned roles]) from directed edges."""
    order = np.lexsort((neighbors, owners))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    indices = neighbors[order].astype(np.int32, copy=False)
    if roles is None:
        return indptr, indices
    return indptr, indices, roles[order]


def compile_links(
    asn_array: np.ndarray,
    providers: np.ndarray,
    customers: np.ndarray,
    peer_lo: np.ndarray,
    peer_hi: np.ndarray,
) -> CompiledTopology:
    """The one CSR builder: a compiled view from interned link endpoints.

    ``asn_array`` holds every ASN once, ascending (``int64``); the link
    arrays hold dense indices into it, one entry per link and in any
    order: ``providers[k]`` sells transit to ``customers[k]``, and
    ``peer_lo[k]`` peers with ``peer_hi[k]``.  Each CSR row comes out
    sorted, so the arrays depend only on the link set.
    """
    n = int(asn_array.size)
    prov_indptr, prov_indices = _csr_from_edges(customers, providers, n)
    peer_indptr, peer_indices = _csr_from_edges(
        np.concatenate((peer_lo, peer_hi)), np.concatenate((peer_hi, peer_lo)), n
    )
    cust_indptr, cust_indices = _csr_from_edges(providers, customers, n)
    nbr_owners = np.concatenate((customers, providers, peer_lo, peer_hi))
    nbr_targets = np.concatenate((providers, customers, peer_hi, peer_lo))
    nbr_role_codes = np.concatenate(
        (
            np.full(customers.size, ROLE_PROVIDER, dtype=np.int8),
            np.full(providers.size, ROLE_CUSTOMER, dtype=np.int8),
            np.full(peer_lo.size + peer_hi.size, ROLE_PEER, dtype=np.int8),
        )
    )
    nbr_indptr, nbr_indices, nbr_roles = _csr_from_edges(
        nbr_owners, nbr_targets, n, roles=nbr_role_codes
    )
    return CompiledTopology(
        asn_array=asn_array,
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


#: Per-graph compile cache of ``(mutation_count, view)``.  Weakly keyed
#: so snapshots (e.g. the rolling active graphs of a DynamicNetwork) do
#: not accumulate.
_COMPILE_CACHE: "weakref.WeakKeyDictionary[ASGraph, tuple[int, CompiledTopology]]" = (
    weakref.WeakKeyDictionary()
)


def compile_topology(graph: ASGraph) -> CompiledTopology:
    """Return the compiled view of the graph's current state.

    Repeated calls on an unmutated graph return the same object, and the
    first call after any mutation compiles a fresh view, so
    ``compile_topology(graph) is view`` tells whether ``view`` still
    describes ``graph``.
    """
    cached = _COMPILE_CACHE.get(graph)
    if cached is None or cached[0] != graph.mutation_count:
        asn_array = np.array(sorted(graph.ases), dtype=np.int64)
        links = graph.links
        firsts = np.searchsorted(asn_array, [link.first for link in links])
        seconds = np.searchsorted(asn_array, [link.second for link in links])
        peer = np.array(
            [link.relationship is Relationship.PEER_TO_PEER for link in links],
            dtype=bool,
        )
        transit = ~peer
        compiled = compile_links(
            asn_array, firsts[transit], seconds[transit], firsts[peer], seconds[peer]
        )
        cached = (graph.mutation_count, compiled)
        _COMPILE_CACHE[graph] = cached
    return cached[1]

"""Mutuality-based agreements (MAs) — the paper's novel agreement type.

A mutuality-based agreement lets two peering ASes exchange access to
neighbors that the Gao–Rexford conditions would keep off limits: each
party grants the other access to (a subset of) its providers and peers,
in exchange for the symmetric favour.  The resulting path segments
violate the GRC (a peer's traffic is forwarded towards a provider or
another peer) but are safe in a path-aware network (§II) and can be made
economically attractive through the qualification methods of §IV.

:func:`mutuality_agreement` builds the maximal MA of one peer pair as an
:class:`~repro.agreements.agreement.Agreement` (the simulation concludes
MAs one at a time).  :func:`enumerate_mutuality_agreements` implements
the enumeration rule of §VI for every peering link at once and returns
:class:`MutualityAgreements`, columns rather than objects:

- *Where the columns come from.*  For a peering link ``(A, B)``, ``A``
  offers ``(providers(A) ∪ peers(A)) − customers(B) − {A, B}``: a set
  difference of sorted CSR rows of the compiled topology, computed for
  all offers in one vectorized pass.
- *Order.*  Agreements come in the graph's iteration order, then the
  iteration order of ``graph.peers(asn)``, one per link where it is
  first seen; links whose two offers are both empty are dropped before
  agreements are numbered.  Top-n ties break by this order.  The target
  column is laid out in the MA path index's direct-row order, so
  :func:`~repro.paths.ma_paths.build_ma_path_index` adopts it as is.
- *No duplicates.*  One agreement per peer pair and sets for offers mean
  no ``(beneficiary, partner, target)`` row appears twice.

Iterating or indexing the columns builds the same ``Agreement`` objects,
in the same order, as calling :func:`mutuality_agreement` per link
(:func:`repro.reference.enumerate_mutuality_agreements`, the oracle).
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence

import numpy as np

from repro.agreements.agreement import AccessOffer, Agreement, AgreementError
from repro.core import CompiledTopology, compile_topology
from repro.core.arrays import CHUNK_ROWS, chunk_ranges, gather_rows, row_bounds
from repro.core.compiled import ROLE_CUSTOMER
from repro.topology.fixtures import AS_A, AS_B, AS_D, AS_E, AS_F
from repro.topology.graph import ASGraph


def mutuality_agreement(
    graph: ASGraph,
    left: int,
    right: int,
    *,
    include_peers: bool = True,
    include_providers: bool = True,
    compiled: CompiledTopology | None = None,
) -> Agreement | None:
    """Build the maximal mutuality-based agreement between two peers.

    ``left`` offers ``right`` access to all of its providers and peers
    that are not already customers of ``right`` (reaching them through
    ``right``'s own customer links would be pointless), and vice versa.
    Returns ``None`` when neither side has anything to offer.

    Membership tests run against the compiled topology (``compiled``
    defaults to the graph's cached compile): its cached frozenset views
    avoid re-allocating the beneficiary's customer set for every
    candidate pair of a full enumeration.  The *iterated* neighbor sets
    deliberately stay the graph's own frozensets — downstream tie-breaks
    (Top-n agreement ranking) follow segment insertion order, so the
    offer sets must be built in the exact same order as before the
    compiled core existed to keep seeded experiment output
    byte-identical.
    """
    topo = compiled if compiled is not None else compile_topology(graph)
    if left not in topo or right not in topo:
        raise AgreementError("both parties must exist in the topology")
    if right not in topo.peers(left):
        raise AgreementError(
            f"mutuality-based agreements are concluded between peers; "
            f"ASes {left} and {right} are not peers"
        )

    def build_offer(owner: int, beneficiary: int) -> AccessOffer:
        # The compiled customer set is only probed for membership, never
        # iterated, so the cached view is safe order-wise.
        excluded = topo.customers(beneficiary) | {owner, beneficiary}
        providers = graph.providers(owner) - excluded if include_providers else frozenset()
        peers = graph.peers(owner) - excluded if include_peers else frozenset()
        return AccessOffer.of(providers=providers, peers=peers)

    offer_left = build_offer(left, right)
    offer_right = build_offer(right, left)
    if offer_left.is_empty() and offer_right.is_empty():
        return None
    return Agreement(party_x=left, party_y=right, offer_x=offer_left, offer_y=offer_right)


class MutualityAgreements(Sequence[Agreement]):
    """The maximal MAs of a topology, held as id columns.

    ``asns`` (sorted) maps ids to ASNs; it holds exactly the parties of
    the agreements and the ASes they offer.  ``parties[k]`` is the id
    pair ``(party_x, party_y)`` of agreement ``k``.  Offer ``2k`` is what
    ``party_y`` offers ``party_x`` and offer ``2k + 1`` what ``party_x``
    offers ``party_y``, so the beneficiary of offer ``j`` is
    ``parties.ravel()[j]``; ``offer_sizes[j]`` counts its targets.
    ``targets`` holds every offer's target ids, the offers ordered by
    beneficiary id and then by agreement, each offer's targets
    ascending: exactly the direct-row order of
    :class:`~repro.paths.ma_paths.MAPathIndex`.

    ``len()`` reads the columns; indexing and iteration build
    :class:`Agreement` objects on demand.
    """

    def __init__(
        self,
        topology: CompiledTopology,
        asns: np.ndarray,
        parties: np.ndarray,
        offer_sizes: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        self.topology = topology
        self.asns = asns
        self.parties = parties
        self.offer_sizes = offer_sizes
        self.targets = targets
        for column in (asns, parties, offer_sizes, targets):
            column.setflags(write=False)
        self._offer_starts: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.parties)

    def __getitem__(self, position: int) -> Agreement:
        return self._agreement(range(len(self))[operator.index(position)])

    def __iter__(self) -> Iterator[Agreement]:
        return map(self._agreement, range(len(self)))

    def _agreement(self, k: int) -> Agreement:
        if self._offer_starts is None:
            order = np.argsort(self.parties.ravel(), kind="stable")
            starts = np.empty(len(order), dtype=np.int64)
            starts[order] = row_bounds(self.offer_sizes[order])[:-1]
            self._offer_starts = starts
        x, y = self.asns[self.parties[k]].tolist()
        return Agreement(
            party_x=x, party_y=y, offer_x=self._offer(2 * k + 1, x), offer_y=self._offer(2 * k, y)
        )

    def _offer(self, offer: int, owner: int) -> AccessOffer:
        start = int(self._offer_starts[offer])
        targets = frozenset(
            self.asns[self.targets[start : start + int(self.offer_sizes[offer])]].tolist()
        )
        providers = self.topology.providers(owner) & targets
        return AccessOffer(providers=providers, peers=targets - providers)


def _peer_pairs(graph: ASGraph) -> tuple[list[int], list[int]]:
    """Every peering link once, as ``(lefts, rights)`` in enumeration order.

    The order is the graph's iteration order, then the iteration order
    of ``graph.peers(asn)``; a link is kept where it is first seen,
    which (the graph iterates ascending) is from its lower ASN.
    """
    lefts: list[int] = []
    rights: list[int] = []
    for asn in graph:
        for peer in graph.peers(asn):
            if peer > asn:
                lefts.append(asn)
                rights.append(peer)
    return lefts, rights


def enumerate_mutuality_agreements(graph: ASGraph) -> MutualityAgreements:
    """The maximal MA of every peering link of the topology (§VI), as columns.

    For a peering link ``(A, B)``, ``A`` offers
    ``(providers(A) ∪ peers(A)) − customers(B) − {A, B}`` and ``B`` the
    mirror image.  Each offer is a set difference of two sorted CSR rows
    of the compiled topology: the offering AS's providers and peers
    minus the beneficiary's customers and the beneficiary itself.  The
    few excluded ASes are looked up in the offering rows, so the
    candidate rows are read once, in chunks of
    :data:`~repro.core.arrays.CHUNK_ROWS`, and
    written straight into the target column.  Links whose two offers
    are both empty are dropped before agreements are numbered.  The
    agreements come in the order of :func:`_peer_pairs`, which the Top-n
    tie-breaks downstream depend on.
    """
    topo = compile_topology(graph)
    lefts, rights = _peer_pairs(graph)
    n = topo.n
    # Offer j: beneficiary = pairs.ravel()[j], partner (offering AS) =
    # pairs[:, ::-1].ravel()[j].
    pairs = np.searchsorted(topo.asn_array, np.array([lefts, rights], dtype=np.int64).T)
    pairs = pairs.reshape(-1, 2).astype(np.int32)
    beneficiary = pairs.ravel()
    partner = pairs[:, ::-1].ravel()

    # Providers and peers of every AS: the non-customer CSR slots.
    upstream = topo.nbr_roles != ROLE_CUSTOMER
    up_indices = topo.nbr_indices[upstream]
    up_indptr = row_bounds(upstream)[topo.nbr_indptr]
    up_keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(up_indptr)) * n + up_indices

    # Where the beneficiary and its customers sit in the partner's row.
    offers = np.arange(len(beneficiary))
    excluded = np.concatenate(
        [gather_rows(topo.cust_indptr, topo.cust_indices, beneficiary), beneficiary]
    )
    excluded_offer = np.concatenate(
        [np.repeat(offers, np.diff(topo.cust_indptr)[beneficiary]), offers]
    )
    keys = partner[excluded_offer].astype(np.int64) * n + excluded
    at = np.minimum(np.searchsorted(up_keys, keys), max(len(up_keys) - 1, 0))
    hit = up_keys[at] == keys
    drop_offer = excluded_offer[hit]
    drop_at = at[hit] - up_indptr[partner[drop_offer]]
    candidates = up_indptr[partner + 1] - up_indptr[partner]
    sizes = candidates - np.bincount(drop_offer, minlength=len(beneficiary))

    # Number the productive agreements; renumber their offers and drops.
    productive = (sizes[0::2] + sizes[1::2]) > 0
    offer_kept = np.repeat(productive, 2)
    renumber = np.cumsum(offer_kept) - 1
    pairs, sizes, candidates = pairs[productive], sizes[offer_kept], candidates[offer_kept]
    beneficiary, partner = pairs.ravel(), pairs[:, ::-1].ravel()
    kept = offer_kept[drop_offer]
    drop_offer, drop_at = renumber[drop_offer[kept]], drop_at[kept]

    # Offers in row order (beneficiary, then agreement); drops in it too.
    order = np.argsort(beneficiary, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    drop_rank = rank[drop_offer]
    by_rank = np.argsort(drop_rank, kind="stable")
    drop_rank, drop_at = drop_rank[by_rank], drop_at[by_rank]
    candidate_bounds = row_bounds(candidates[order])
    target_bounds = row_bounds(sizes[order])

    targets = np.empty(int(target_bounds[-1]), dtype=np.int32)
    used = np.zeros(n, dtype=bool)
    used[beneficiary] = True
    for lo, hi in chunk_ranges(candidate_bounds, CHUNK_ROWS):
        rows = gather_rows(up_indptr, up_indices, partner[order[lo:hi]])
        keep = np.ones(len(rows), dtype=bool)
        d_lo, d_hi = np.searchsorted(drop_rank, [lo, hi])
        dropped = candidate_bounds[drop_rank[d_lo:d_hi]] + drop_at[d_lo:d_hi]
        keep[dropped - candidate_bounds[lo]] = False
        chunk = rows[keep]
        used[chunk] = True
        targets[target_bounds[lo] : target_bounds[hi]] = chunk

    ids = np.cumsum(used, dtype=np.int32) - 1
    for start in range(0, len(targets), CHUNK_ROWS):
        targets[start : start + CHUNK_ROWS] = ids[targets[start : start + CHUNK_ROWS]]
    return MutualityAgreements(topo, topo.asn_array[used], ids[pairs], sizes, targets)


def figure1_mutuality_agreement(graph: ASGraph | None = None) -> Agreement:
    """The worked example of §III-B2 on the Fig. 1 topology.

    ``a = [D(↑{A}); E(↑{B}, →{F})]``: D offers E access to its provider
    A, E in return offers D access to its provider B and its peer F.
    """
    agreement = Agreement(
        party_x=AS_D,
        party_y=AS_E,
        offer_x=AccessOffer.of(providers={AS_A}),
        offer_y=AccessOffer.of(providers={AS_B}, peers={AS_F}),
    )
    if graph is not None:
        agreement.validate_against(graph)
    return agreement


def agreements_involving(
    agreements: list[Agreement], asn: int
) -> list[Agreement]:
    """Filter a list of agreements to those with the given AS as a party."""
    return [a for a in agreements if asn in a.parties]

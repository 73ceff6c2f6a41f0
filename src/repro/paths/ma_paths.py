"""Length-3 paths created by mutuality-based agreements (§VI).

An MA can provide an AS with new paths in two ways:

- *directly*: the AS is a party of the MA and gains the segment
  ``AS – partner – target`` (e.g. D gains ``D E B`` from the Fig. 1
  agreement), or
- *indirectly*: the AS is the *subject* (target) of an MA between two
  other ASes and gains the reverse path towards the beneficiary (e.g.
  B and F gain paths to D from the MA between D and E).

The paper's series ``MA`` counts both kinds, ``MA*`` only the directly
gained paths, and ``MA* (Top n)`` the directly gained paths of the ``n``
most attractive agreements of the AS.

**Layout.**  :class:`MAPathIndex` stores the paths as int columns over a
dense id space: ``asns[i]`` is the ASN of id ``i`` (sorted, so ids
compare like ASNs).  A *direct* row is ``(beneficiary, partner, target,
agreement)``, where ``agreement`` is the position of the providing
agreement in the list the index was built from.  Rows are sorted by
beneficiary, so each AS owns one contiguous row range (CSR, as in
:class:`~repro.core.PathEngine`): ``index.direct[asn]`` is that
``range``, and the partner, target and agreement columns hold its rows.
*Indirect* rows are the same rows with beneficiary and target swapped,
ranged per target in ``index.indirect``.  Readers handle a row slice as
packed ``partner * len(asns) + target`` int64 keys, so excluding GRC
paths is a membership test and a union is a sort.

**Where the columns come from.**  :func:`build_ma_path_index` adopts
the target column of an enumeration
(:class:`~repro.agreements.mutuality.MutualityAgreements`), which the
CSR offer kernel already writes in direct-row order: beneficiary, then
agreement, then ascending target.  Any other iterable of agreement
objects is gathered into the same columns and sorted into that order.
Both then take one path: range the direct rows, and sort packed
``(target, partner, beneficiary)`` keys for the indirect rows, in
chunks of :data:`~repro.core.arrays.CHUNK_ROWS` so the int64
temporaries stay bounded.

**Duplicates.**  An AS holds each path once.  A path can repeat only
where two offers share a (beneficiary, partner) pair, which an
enumeration never produces (one agreement per peer pair), so only then
are the rows checked.  When several agreements provide the same direct
path, its row sits where the path was first provided (agreement order,
then ascending target within an agreement), and it is credited to the
*last* of those agreements.  ``num_agreements`` counts the agreements
the index was built from.

**Ties.**  Top-n ranks agreements by the number of new (non-GRC) direct
rows credited to them, most first; agreements with equal counts keep
the order of their first new row, which is not necessarily their
agreement order.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from repro.agreements.agreement import Agreement
from repro.agreements.mutuality import MutualityAgreements
from repro.core import path_engine_for
from repro.core.arrays import CHUNK_ROWS, chunk_ranges, row_bounds
from repro.topology.graph import ASGraph

Path3 = tuple[int, int, int]

#: Most ids the build supports: its ``(owner, partner, target)`` keys
#: pack three ids into one int64.
MAX_IDS = 1 << 21


def _no_ints() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values."""
    starts = np.ones(len(sorted_values), dtype=bool)
    starts[1:] = sorted_values[1:] != sorted_values[:-1]
    return starts


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` without its hashing detour)."""
    ordered = np.sort(values)
    return ordered[_run_starts(ordered)]


def _packed(width: int, *columns: np.ndarray) -> np.ndarray:
    """One int64 key per row: the id ``columns`` as digits in base ``width``."""
    key = columns[0].astype(np.int64)
    for column in columns[1:]:
        key *= width
        key += column
    return key


def _isin(values: np.ndarray, sorted_table: np.ndarray) -> np.ndarray:
    """Which ``values`` occur in ``sorted_table`` (a sorted key array)."""
    if not len(sorted_table):
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_table, values), len(sorted_table) - 1)
    return sorted_table[at] == values


@dataclass(frozen=True, eq=False)
class RowRanges(Mapping[int, range]):
    """One side of the index: rows ``(owner, partner, far)`` ranged per owner.

    As a mapping it is ``owner ASN -> range`` of the owner's rows (ASes
    without rows are absent); ``partner`` and ``far`` are the id columns.
    """

    ranges: dict[int, range] = field(default_factory=dict)
    partner: np.ndarray = field(default_factory=_no_ints)
    far: np.ndarray = field(default_factory=_no_ints)

    @classmethod
    def from_indptr(
        cls, asns: np.ndarray, indptr: np.ndarray, partner: np.ndarray, far: np.ndarray
    ) -> "RowRanges":
        """Range rows sorted by owner id; ``indptr`` holds each owner's first row."""
        owners = np.flatnonzero(indptr[1:] > indptr[:-1])
        ranges = {
            asn: range(lo, hi)
            for asn, lo, hi in zip(
                asns[owners].tolist(), indptr[owners].tolist(), indptr[owners + 1].tolist()
            )
        }
        return cls(ranges, partner, far)

    def __getitem__(self, asn: int) -> range:
        return self.ranges[asn]

    def __iter__(self) -> Iterator[int]:
        return iter(self.ranges)

    def __len__(self) -> int:
        return len(self.ranges)

    def keys_of(self, asn: int, width: int) -> np.ndarray:
        """Packed ``partner * width + far`` keys of the rows of ``asn``, in row order."""
        rows = self.ranges.get(asn)
        if rows is None:
            return _no_ints()
        lo, hi = rows.start, rows.stop
        return _packed(width, self.partner[lo:hi], self.far[lo:hi])


def agreement_ranks(agreement: np.ndarray) -> np.ndarray:
    """Top-n rank of the agreement of every row (0 is the most attractive).

    Agreements rank by their number of rows, most first; a *stable*
    sort keeps equal counts in the order of each agreement's first row.
    """
    if not len(agreement):
        return _no_ints()
    order = np.argsort(agreement, kind="stable")
    starts = np.flatnonzero(_run_starts(agreement[order]))
    counts = np.diff(np.append(starts, len(agreement)))
    by_first_row = np.argsort(order[starts])
    ranked = by_first_row[np.argsort(-counts[by_first_row], kind="stable")]
    rank = np.empty(len(starts), dtype=np.int64)
    rank[ranked] = np.arange(len(starts))
    row_rank = np.empty(len(agreement), dtype=np.int64)
    row_rank[order] = np.repeat(rank, counts)
    return row_rank


@dataclass(frozen=True)
class NewMAPaths:
    """The MA paths of one AS that are not GRC paths, as packed keys."""

    #: Directly gained paths, in row order.
    direct: np.ndarray
    #: :func:`agreement_ranks` of the ``direct`` rows.
    rank: np.ndarray
    #: Directly and indirectly gained paths, sorted and distinct.
    all: np.ndarray

    def top_n(self, n: int) -> np.ndarray:
        """Direct paths of the ``n`` most attractive agreements."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self.direct[self.rank < n]


@dataclass(frozen=True, eq=False)
class MAPathIndex:
    """Per-AS index of the length-3 paths created by a set of MAs.

    See the module docstring for the column layout.  ``MAPathIndex()``
    is the empty index.
    """

    asns: np.ndarray = field(default_factory=_no_ints)
    direct: RowRanges = field(default_factory=RowRanges)
    indirect: RowRanges = field(default_factory=RowRanges)
    #: Providing agreement of every direct row.
    agreement: np.ndarray = field(default_factory=_no_ints)
    #: Number of agreements the index was built from.
    num_agreements: int = 0

    # ------------------------------------------------------------------
    # Keys: what the hot readers consume
    # ------------------------------------------------------------------
    def path_keys(self, paths: Collection[Path3]) -> np.ndarray:
        """Sorted keys of paths ``(·, partner, target)`` of one source.

        Paths through an AS the index does not know match no row and are
        dropped.
        """
        width = len(self.asns)
        if not paths or not width:
            return _no_ints()
        flat = np.fromiter(chain.from_iterable(paths), dtype=np.int64, count=3 * len(paths))
        hops = flat.reshape(-1, 3)[:, 1:]
        ids = np.minimum(np.searchsorted(self.asns, hops), width - 1)
        known = (self.asns[ids] == hops).all(axis=1)
        return np.sort(_packed(width, ids[known, 0], ids[known, 1]))

    def new_paths(self, asn: int, grc: Collection[Path3] = frozenset()) -> NewMAPaths:
        """The MA paths of ``asn`` outside its GRC path set ``grc``."""
        width = len(self.asns)
        grc_keys = self.path_keys(grc)
        direct = self.direct.keys_of(asn, width)
        union = _distinct(np.concatenate([direct, self.indirect.keys_of(asn, width)]))
        rows = self.direct.ranges.get(asn, range(0))
        fresh = ~_isin(direct, grc_keys)
        agreement = self.agreement[rows.start : rows.stop][fresh]
        return NewMAPaths(
            direct=direct[fresh],
            rank=agreement_ranks(agreement),
            all=union[~_isin(union, grc_keys)],
        )

    def paths(self, asn: int, keys: np.ndarray) -> list[Path3]:
        """Decode keys of ``asn``'s rows into ``(asn, partner, target)`` paths."""
        partners, targets = np.divmod(keys, len(self.asns))
        return list(zip(repeat(asn), self.asns[partners].tolist(), self.asns[targets].tolist()))

    def targets(self, keys: np.ndarray) -> list[int]:
        """Distinct target ASNs of the keyed paths."""
        return self.asns[_distinct(keys % len(self.asns))].tolist() if len(keys) else []

    # ------------------------------------------------------------------
    # Path sets
    # ------------------------------------------------------------------
    def direct_paths(self, asn: int) -> frozenset[Path3]:
        """Directly gained MA paths starting at ``asn`` (the MA* series)."""
        return frozenset(self.paths(asn, self.direct.keys_of(asn, len(self.asns))))

    def indirect_paths(self, asn: int) -> frozenset[Path3]:
        """Indirectly gained MA paths starting at ``asn``."""
        return frozenset(self.paths(asn, self.indirect.keys_of(asn, len(self.asns))))

    def all_paths(self, asn: int) -> frozenset[Path3]:
        """All MA paths starting at ``asn`` (the MA series)."""
        return frozenset(self.paths(asn, self.new_paths(asn).all))

    def top_n_paths(
        self,
        asn: int,
        n: int,
        graph: ASGraph | None = None,
        *,
        grc: frozenset[Path3] | None = None,
    ) -> frozenset[Path3]:
        """Directly gained paths from the AS's ``n`` most attractive MAs.

        Agreements are ranked by the number of *new* directly gained
        paths they provide to the AS (paths that are not already
        GRC-conforming are new; when a topology is supplied the GRC
        paths are excluded from the ranking and the result, matching the
        paper's "additional paths" notion).  Callers that already hold
        the AS's GRC path set can pass it via ``grc`` to skip the lookup.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if grc is None:
            grc = path_engine_for(graph).paths(asn) if graph is not None else frozenset()
        return frozenset(self.paths(asn, self.new_paths(asn, grc).top_n(n)))


def agreement_paths(agreement: Agreement) -> dict[int, set[Path3]]:
    """Length-3 paths created by one agreement, keyed by the AS that gains them."""
    gained: dict[int, set[Path3]] = defaultdict(set)
    for segment in agreement.all_segments():
        gained[segment.beneficiary].add(segment.path)
        gained[segment.target].add(segment.reverse_path)
    return gained


def _offer_columns(
    agreements: Iterable[Agreement],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(asns, parties, offer_sizes, targets)`` of agreement objects.

    The columns of :class:`~repro.agreements.mutuality.MutualityAgreements`:
    one pass collects every offer's target sets, ``np.fromiter`` packs
    them into one flat column, and one sort puts the targets into
    direct-row order (beneficiary, then agreement, then ascending
    target).
    """
    # Per offer (two per agreement, beneficiary x first): who gains and
    # how many targets.
    parties = array("q")
    sizes = array("q")
    offered: list[frozenset[int]] = []
    for agreement in agreements:
        parties.append(agreement.party_x)
        parties.append(agreement.party_y)
        for offer in (agreement.offer_y, agreement.offer_x):
            offered += (offer.providers, offer.peers, offer.customers)
            sizes.append(len(offer.providers) + len(offer.peers) + len(offer.customers))
    offer_sizes = np.frombuffer(sizes, dtype=np.int64)
    rows = int(offer_sizes.sum())
    party_asns = np.frombuffer(parties, dtype=np.int64).reshape(-1, 2)
    target_asns = np.fromiter(chain.from_iterable(offered), dtype=np.int64, count=rows)
    asns = _distinct(np.concatenate([party_asns.ravel(), _distinct(target_asns)]))
    target = np.searchsorted(asns, target_asns).astype(np.int32)
    del target_asns
    party_ids = np.searchsorted(asns, party_asns).astype(np.int32)
    offers = len(offer_sizes)
    offer_rank = np.empty(offers, dtype=np.int64)
    offer_rank[np.argsort(party_ids.ravel(), kind="stable")] = np.arange(offers)
    offer = np.repeat(offer_rank, offer_sizes)
    target = target[np.argsort(_packed(len(asns), offer, target))]
    return asns, party_ids, offer_sizes, target


def _index_from_offers(
    asns: np.ndarray, parties: np.ndarray, offer_sizes: np.ndarray, target: np.ndarray
) -> MAPathIndex:
    """Dedup and range the direct rows of offer columns; derive the indirect rows.

    ``target`` must already be in direct-row order (see
    :class:`~repro.agreements.mutuality.MutualityAgreements`).  A path
    can repeat only where two offers share (beneficiary, partner), so
    the rows are checked for duplicates only then.
    """
    width = len(asns)
    if width > MAX_IDS:
        raise ValueError(f"MA path index supports at most {MAX_IDS} ASes, got {width}")
    offers = np.argsort(parties.ravel(), kind="stable")
    owner = parties.ravel()[offers]
    partner = parties[:, ::-1].ravel()[offers]
    sizes = offer_sizes[offers]
    row_partner = np.repeat(partner, sizes)
    provider = np.repeat((offers // 2).astype(np.int32), sizes)

    if not _run_starts(np.sort(_packed(width, owner, partner))).all():
        # A path provided more than once keeps its first row and is
        # credited to its last agreement (row order is agreement order
        # per owner).
        row_owner = np.repeat(owner, sizes)
        key = _packed(width, row_owner, row_partner, target)
        by_key = np.argsort(key)
        key = key[by_key]
        if not _run_starts(key).all():
            runs = np.flatnonzero(_run_starts(key))
            first = np.minimum.reduceat(by_key, runs)
            provider[first] = provider[np.maximum.reduceat(by_key, runs)]
            keep = np.sort(first)
            row_owner, row_partner = row_owner[keep], row_partner[keep]
            target, provider = target[keep], provider[keep]
        del key, by_key
        direct_indptr = np.searchsorted(row_owner, np.arange(width + 1))
        del row_owner
    else:
        direct_indptr = row_bounds(sizes)[np.searchsorted(owner, np.arange(width + 1))]

    # Indirect rows: (target, partner, owner) as sorted packed keys,
    # packed and unpacked per chunk of owners.
    swapped = np.empty(len(target), dtype=np.int64)
    for lo, hi in chunk_ranges(direct_indptr, CHUNK_ROWS):
        rows = slice(direct_indptr[lo], direct_indptr[hi])
        row_owner = np.repeat(np.arange(lo, hi), np.diff(direct_indptr[lo : hi + 1]))
        swapped[rows] = _packed(width, target[rows], row_partner[rows], row_owner)
    swapped.sort()
    indirect_partner = np.empty(len(swapped), dtype=np.int32)
    indirect_far = np.empty(len(swapped), dtype=np.int32)
    for lo in range(0, len(swapped), CHUNK_ROWS):
        high, indirect_far[lo : lo + CHUNK_ROWS] = np.divmod(swapped[lo : lo + CHUNK_ROWS], width)
        indirect_partner[lo : lo + CHUNK_ROWS] = high % width
    indirect_indptr = np.empty(width + 1, dtype=np.int64)
    indirect_indptr[0], indirect_indptr[-1] = 0, len(swapped)
    indirect_indptr[1:-1] = np.searchsorted(swapped, np.arange(1, width) * width * width)
    del swapped
    return MAPathIndex(
        asns=asns,
        direct=RowRanges.from_indptr(asns, direct_indptr, row_partner, target),
        indirect=RowRanges.from_indptr(asns, indirect_indptr, indirect_partner, indirect_far),
        agreement=provider,
        num_agreements=len(parties),
    )


def build_ma_path_index(agreements: Iterable[Agreement]) -> MAPathIndex:
    """Index the paths created by a collection of MAs.

    An enumeration's :class:`~repro.agreements.mutuality.MutualityAgreements`
    hands over its columns as they are, already in row order; any other
    iterable of agreement objects is first gathered into the same
    columns (:func:`_offer_columns`).
    """
    if isinstance(agreements, MutualityAgreements):
        columns = (agreements.asns, agreements.parties, agreements.offer_sizes, agreements.targets)
    else:
        columns = _offer_columns(agreements)
    if not len(columns[3]):
        return MAPathIndex(num_agreements=len(columns[1]))
    return _index_from_offers(*columns)


def new_ma_paths(
    graph: ASGraph, index: MAPathIndex, asn: int, *, directly_gained_only: bool = False
) -> frozenset[Path3]:
    """MA paths of an AS that are not already available under the GRC."""
    new = index.new_paths(asn, path_engine_for(graph).paths(asn))
    return frozenset(index.paths(asn, new.direct if directly_gained_only else new.all))

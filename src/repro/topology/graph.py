"""The AS-level topology: a mixed graph of peering and transit links.

This is the central substrate of the reproduction.  It corresponds to the
mixed graph ``G = (A, L_peer, L_pc)`` of §III-A: nodes are ASes,
undirected edges are settlement-free peering links, directed edges are
provider–customer links.  Every AS ``X`` decomposes its neighborhood into
the provider set ``π(X)``, the peer set ``ε(X)``, and the customer set
``γ(X)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.topology.relationships import Link, Relationship, Role


class TopologyError(Exception):
    """Raised for inconsistent topology operations."""


class ASGraph:
    """Mixed AS-level graph with provider–customer and peering links.

    The graph offers O(1) access to the provider / peer / customer sets
    of every AS and link lookup by endpoint pair.

    Example
    -------
    >>> g = ASGraph()
    >>> g.add_provider_customer(1, 2)
    >>> g.add_peering(2, 3)
    >>> g.providers(2)
    frozenset({1})
    >>> g.peers(2)
    frozenset({3})
    """

    def __init__(self) -> None:
        self._providers: dict[int, set[int]] = {}
        self._peers: dict[int, set[int]] = {}
        self._customers: dict[int, set[int]] = {}
        self._links: dict[frozenset[int], Link] = {}
        self._mutations = 0

    @property
    def mutation_count(self) -> int:
        """Monotonic counter bumped on every structural change.

        :func:`repro.core.compile_topology` caches one immutable array
        form of this graph per counter value: a compiled view built at
        mutation count ``m`` is served exactly while the graph's counter
        still reads ``m``.
        """
        return self._mutations

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_as(self, asn: int) -> None:
        """Add an AS without any links (idempotent)."""
        if asn not in self._providers:
            self._providers[asn] = set()
            self._peers[asn] = set()
            self._customers[asn] = set()
            self._mutations += 1

    def add_provider_customer(self, provider: int, customer: int) -> None:
        """Add a transit link where ``provider`` sells transit to ``customer``."""
        self._add_link(Link(provider, customer, Relationship.PROVIDER_TO_CUSTOMER))

    def add_peering(self, left: int, right: int) -> None:
        """Add a settlement-free peering link between two ASes."""
        self._add_link(Link(left, right, Relationship.PEER_TO_PEER))

    def add_link(self, link: Link) -> None:
        """Add a pre-built :class:`Link`."""
        self._add_link(link)

    def _add_link(self, link: Link) -> None:
        key = link.endpoints
        existing = self._links.get(key)
        if existing is not None:
            if existing == link:
                return
            raise TopologyError(
                f"conflicting relationship between {link.first} and {link.second}: "
                f"existing {existing}, new {link}"
            )
        self.add_as(link.first)
        self.add_as(link.second)
        self._links[key] = link
        self._mutations += 1
        if link.relationship is Relationship.PROVIDER_TO_CUSTOMER:
            self._customers[link.provider].add(link.customer)
            self._providers[link.customer].add(link.provider)
        else:
            self._peers[link.first].add(link.second)
            self._peers[link.second].add(link.first)

    def remove_link(self, left: int, right: int) -> None:
        """Remove the link between two ASes, if present."""
        key = frozenset((left, right))
        link = self._links.pop(key, None)
        if link is None:
            raise TopologyError(f"no link between {left} and {right}")
        self._mutations += 1
        if link.relationship is Relationship.PROVIDER_TO_CUSTOMER:
            self._customers[link.provider].discard(link.customer)
            self._providers[link.customer].discard(link.provider)
        else:
            self._peers[link.first].discard(link.second)
            self._peers[link.second].discard(link.first)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def ases(self) -> frozenset[int]:
        """All AS numbers in the graph."""
        return frozenset(self._providers)

    @property
    def links(self) -> tuple[Link, ...]:
        """All links in the graph (deterministic order)."""
        return tuple(self._links[key] for key in sorted(self._links, key=sorted))

    def __contains__(self, asn: int) -> bool:
        return asn in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._providers))

    def num_links(self) -> int:
        """Total number of links (transit + peering)."""
        return len(self._links)

    def num_peering_links(self) -> int:
        """Number of peering links."""
        return sum(
            1
            for link in self._links.values()
            if link.relationship is Relationship.PEER_TO_PEER
        )

    def num_transit_links(self) -> int:
        """Number of provider–customer links."""
        return len(self._links) - self.num_peering_links()

    def providers(self, asn: int) -> frozenset[int]:
        """The provider set ``π(X)`` of an AS."""
        self._require(asn)
        return frozenset(self._providers[asn])

    def peers(self, asn: int) -> frozenset[int]:
        """The peer set ``ε(X)`` of an AS."""
        self._require(asn)
        return frozenset(self._peers[asn])

    def customers(self, asn: int) -> frozenset[int]:
        """The customer set ``γ(X)`` of an AS."""
        self._require(asn)
        return frozenset(self._customers[asn])

    def neighbors(self, asn: int) -> frozenset[int]:
        """All neighbors of an AS regardless of relationship."""
        self._require(asn)
        return frozenset(
            self._providers[asn] | self._peers[asn] | self._customers[asn]
        )

    def degree(self, asn: int) -> int:
        """Total number of neighbors of an AS."""
        return len(self.neighbors(asn))

    def has_link(self, left: int, right: int) -> bool:
        """Whether any link exists between two ASes."""
        return frozenset((left, right)) in self._links

    def link(self, left: int, right: int) -> Link:
        """Return the link between two ASes."""
        key = frozenset((left, right))
        try:
            return self._links[key]
        except KeyError:
            raise TopologyError(f"no link between {left} and {right}") from None

    def relationship(self, left: int, right: int) -> Relationship:
        """Return the relationship of the link between two ASes."""
        return self.link(left, right).relationship

    def role_of(self, asn: int, neighbor: int) -> Role:
        """Role that ``neighbor`` plays for ``asn`` (provider/peer/customer)."""
        self._require(asn)
        if neighbor in self._providers[asn]:
            return Role.PROVIDER
        if neighbor in self._peers[asn]:
            return Role.PEER
        if neighbor in self._customers[asn]:
            return Role.CUSTOMER
        raise TopologyError(f"AS {neighbor} is not a neighbor of AS {asn}")

    def is_stub(self, asn: int) -> bool:
        """Whether an AS has no customers (a leaf of the transit hierarchy)."""
        self._require(asn)
        return not self._customers[asn]

    def tier1_ases(self) -> frozenset[int]:
        """ASes without providers (the top of the transit hierarchy)."""
        return frozenset(asn for asn in self._providers if not self._providers[asn])

    def customer_cone(self, asn: int) -> frozenset[int]:
        """All ASes reachable from ``asn`` by following customer links.

        The cone includes ``asn`` itself, matching the usual CAIDA
        definition of the customer cone.
        """
        self._require(asn)
        cone: set[int] = set()
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            if current in cone:
                continue
            cone.add(current)
            frontier.extend(self._customers[current] - cone)
        return frozenset(cone)

    def _require(self, asn: int) -> None:
        if asn not in self._providers:
            raise TopologyError(f"unknown AS: {asn}")

    # ------------------------------------------------------------------
    # Validation and export
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants of the topology.

        Raises :class:`TopologyError` if the provider–customer hierarchy
        contains a cycle (an AS would then be in its own customer cone,
        which is economically nonsensical) or if the internal indices are
        inconsistent.
        """
        for asn in self._providers:
            overlapping = (
                (self._providers[asn] & self._customers[asn])
                | (self._providers[asn] & self._peers[asn])
                | (self._customers[asn] & self._peers[asn])
            )
            if overlapping:
                raise TopologyError(
                    f"AS {asn} has neighbors with conflicting roles: {overlapping}"
                )
        cycle = self._provider_cycle()
        if cycle is not None:
            loop = " -> ".join(f"AS {asn}" for asn in [*cycle, cycle[0]])
            raise TopologyError(f"provider–customer cycle detected: {loop}")

    def _provider_cycle(self) -> list[int] | None:
        """The ASes of one provider→customer cycle, in order, or ``None``.

        An iterative depth-first search over the customer sets: an edge
        back to an AS still on the search path closes a cycle.
        """
        finished: set[int] = set()
        for root in self._customers:
            if root in finished:
                continue
            path = [root]
            on_path = {root}
            pending = [iter(self._customers[root])]
            while pending:
                customer = next(pending[-1], None)
                if customer is None:
                    pending.pop()
                    done = path.pop()
                    on_path.discard(done)
                    finished.add(done)
                elif customer in on_path:
                    return path[path.index(customer) :]
                elif customer not in finished:
                    path.append(customer)
                    on_path.add(customer)
                    pending.append(iter(self._customers[customer]))
        return None

    def copy(self) -> "ASGraph":
        """Return a deep copy of the topology."""
        clone = ASGraph()
        for asn in self._providers:
            clone.add_as(asn)
        for link in self._links.values():
            clone.add_link(link)
        return clone

    def subgraph(self, ases: Iterable[int]) -> "ASGraph":
        """Return the topology induced by a subset of ASes."""
        keep = set(ases)
        sub = ASGraph()
        for asn in keep:
            if asn in self:
                sub.add_as(asn)
        for link in self._links.values():
            if link.first in keep and link.second in keep:
                sub.add_link(link)
        return sub

    def __repr__(self) -> str:
        return (
            f"ASGraph(ases={len(self)}, transit_links={self.num_transit_links()}, "
            f"peering_links={self.num_peering_links()})"
        )


def path_links(
    sources: np.ndarray, transits: np.ndarray, destinations: np.ndarray
) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
    """The distinct links of length-3 paths given as ASN columns.

    Returns ``(lefts, rights, first, second)``: link ``k`` joins ASes
    ``lefts[k] <= rights[k]``, and path ``i`` crosses link ``first[i]``
    (source–transit), then link ``second[i]`` (transit–destination).
    The batch path metrics look each distinct link up once.
    """
    ends = np.concatenate([sources, transits, destinations]).astype(np.int64, copy=False)
    asns, ids = np.unique(ends, return_inverse=True)
    width = len(asns)
    s, t, d = ids.reshape(3, -1)
    hops = np.concatenate(
        [np.minimum(s, t) * width + np.maximum(s, t), np.minimum(t, d) * width + np.maximum(t, d)]
    )
    links, link_of = np.unique(hops, return_inverse=True)
    low, high = np.divmod(links, width)
    return asns[low].tolist(), asns[high].tolist(), link_of[: len(s)], link_of[len(s) :]

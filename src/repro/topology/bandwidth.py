"""Degree-gravity link-capacity model.

The bandwidth analysis of §VI-C infers the bandwidth of inter-AS links
with a degree-gravity model: each link is endowed with a capacity
proportional to the product of the node degrees of its end-points.  The
bandwidth of a path is then the minimum capacity of its links.  This
module implements exactly that model (the same one the paper uses, so no
substitution is needed here).

**Exactness of the batch form.**  :meth:`LinkCapacityModel.path_bandwidths`
reads each distinct link's capacity once into a float64 table and takes
``np.where(second < first, second, first)`` per path: the selection
Python's ``min`` makes, with no arithmetic, so it returns the same bits
as :meth:`LinkCapacityModel.path_bandwidth`.
The model rejects NaN capacities, which have no place in an order: the
pair analysis sorts bandwidths to take their medians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.topology.graph import ASGraph, path_links


def _check_capacity(value: float) -> None:
    if not value >= 0.0:  # also rejects NaN
        raise ValueError(f"capacity must be a non-negative number, got {value}")


@dataclass
class LinkCapacityModel:
    """Capacities of inter-AS links, indexed by unordered endpoint pair."""

    capacities: dict[frozenset[int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for value in self.capacities.values():
            _check_capacity(value)

    def capacity(self, left: int, right: int) -> float:
        """Capacity of the link between two ASes (in arbitrary bandwidth units)."""
        try:
            return self.capacities[frozenset((left, right))]
        except KeyError:
            raise KeyError(f"no capacity known for link {left} -- {right}") from None

    def set_capacity(self, left: int, right: int, value: float) -> None:
        """Assign a capacity to a link."""
        _check_capacity(value)
        self.capacities[frozenset((left, right))] = value

    def path_bandwidth(self, path: tuple[int, ...]) -> float:
        """Bandwidth of an AS-level path: the minimum link capacity on it."""
        if len(path) < 2:
            return float("inf")
        return min(
            self.capacity(path[i], path[i + 1]) for i in range(len(path) - 1)
        )

    def path_bandwidths(
        self, sources: np.ndarray, transits: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        """:meth:`path_bandwidth` of every length-3 path of the ASN columns."""
        lefts, rights, first, second = path_links(sources, transits, destinations)
        table = np.array(
            [self.capacity(left, right) for left, right in zip(lefts, rights)], dtype=np.float64
        )
        source_side, destination_side = table[first], table[second]
        return np.where(destination_side < source_side, destination_side, source_side)


def degree_gravity_capacities(
    graph: ASGraph,
    *,
    scale: float = 1.0,
    extra_link_endpoints: tuple[tuple[int, int], ...] = (),
) -> LinkCapacityModel:
    """Build a :class:`LinkCapacityModel` from the degree-gravity model.

    ``capacity(u, v) = scale * degree(u) * degree(v)``.

    ``extra_link_endpoints`` lets callers obtain capacities for candidate
    links that are not part of the graph yet (e.g. virtual links created
    by a mutuality-based agreement); those links also follow the
    degree-gravity rule.
    """
    model = LinkCapacityModel()
    degree = {asn: graph.degree(asn) for asn in graph.ases}
    for link in graph.links:
        capacity = scale * degree[link.first] * degree[link.second]
        model.set_capacity(link.first, link.second, capacity)
    for left, right in extra_link_endpoints:
        capacity = scale * graph.degree(left) * graph.degree(right)
        model.set_capacity(left, right, capacity)
    return model

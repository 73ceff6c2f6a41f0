"""Geographic embedding of ASes and interconnection points.

The geodistance analysis of §VI-B needs, for every AS, a geographic
centre of gravity, and for every inter-AS link, the location(s) of the
interconnection point(s).  The paper derives these from the CAIDA
prefix-to-AS dataset, GeoLite2, and the CAIDA geographic AS-relationship
dataset.  None of these are available offline, so this module provides

- :class:`GeographicEmbedding` — the data structure used by the
  geodistance analysis (AS centres of gravity + per-link interconnection
  points), independent of where the coordinates come from, and
- :class:`SyntheticGeographyGenerator` — a generator that places ASes
  around regional hubs (mimicking continental clustering of the real
  Internet) and puts 1–3 interconnection points on every link.

The geodistance of a length-3 path ``(A1, l12, A2, l23, A3)`` follows the
paper exactly: ``d(A1, l12) + d(l12, l23) + d(l23, A3)``, minimized over
the known interconnection points of the two links.

**Exactness of the batch form.**
:meth:`GeographicEmbedding.path_geodistances` returns the same bits as
:meth:`GeographicEmbedding.path_geodistance` on every path.  Its array
operations are the ones IEEE 754 rounds exactly, whatever the
implementation: per point, the ``math.radians``/``math.cos`` values are
computed once and stored; per pair, the subtractions, ``/ 2.0``,
products, sums, ``np.sqrt`` and ``np.minimum(1.0, ·)`` run as arrays,
in the order :func:`haversine_km` evaluates them, and so do the
additions and minima of the path DP.  The transcendental calls stay
scalar libm calls through ``map``: ``math.sin``, ``pow(·, 2.0)`` (what
``** 2`` calls) and ``math.asin``.  NumPy's own ``arcsin`` and ``x * x``
round differently from those on some inputs, and which ``sin`` kernel
NumPy dispatches to depends on the host's SIMD support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.topology.graph import ASGraph, path_links

EARTH_RADIUS_KM = 6371.0

#: Approximate coordinates of major interconnection regions, used as hubs
#: for the synthetic embedding (latitude, longitude).
DEFAULT_REGION_HUBS: tuple[tuple[float, float], ...] = (
    (40.7, -74.0),   # New York
    (37.4, -122.1),  # Bay Area
    (50.1, 8.7),     # Frankfurt
    (51.5, -0.1),    # London
    (1.3, 103.8),    # Singapore
    (35.7, 139.7),   # Tokyo
    (-23.5, -46.6),  # São Paulo
    (28.6, 77.2),    # Delhi
)


@dataclass(frozen=True)
class GeoPoint:
    """A point on the Earth's surface (degrees latitude / longitude)."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    inner = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(inner)))


#: Point pairs per pass of the scalar libm calls, which bounds the
#: Python float lists they go through.
HAVERSINE_CHUNK = 4096


def _haversines(
    latitudes: np.ndarray,
    longitudes: np.ndarray,
    cosines: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """:func:`haversine_km` of the points ``a[k]`` and ``b[k]``, for every ``k``.

    The points are rows of per-point tables: latitude and longitude in
    radians and the cosine of the latitude.  The result is bit-identical
    to the scalar function (see the module docstring).
    """
    distances = np.empty(len(a))
    for start in range(0, len(a), HAVERSINE_CHUNK):
        first, second = a[start : start + HAVERSINE_CHUNK], b[start : start + HAVERSINE_CHUNK]
        count = len(first)
        halves = np.concatenate(
            [
                (latitudes[second] - latitudes[first]) / 2.0,
                (longitudes[second] - longitudes[first]) / 2.0,
            ]
        )
        squares = np.fromiter(
            map(pow, map(math.sin, halves.tolist()), repeat(2.0)),
            dtype=np.float64,
            count=2 * count,
        )
        inner = squares[:count] + cosines[first] * cosines[second] * squares[count:]
        roots = np.minimum(1.0, np.sqrt(inner)).tolist()
        distances[start : start + count] = (2.0 * EARTH_RADIUS_KM) * np.fromiter(
            map(math.asin, roots), dtype=np.float64, count=count
        )
    return distances


def centroid(points: list[GeoPoint]) -> GeoPoint:
    """Centre of gravity of a set of points (simple coordinate average).

    The paper averages the geolocations of an AS's prefixes to obtain the
    AS centre of gravity; the same flat average is used here.
    """
    if not points:
        raise ValueError("cannot compute the centroid of zero points")
    lat = sum(p.latitude for p in points) / len(points)
    lon = sum(p.longitude for p in points) / len(points)
    return GeoPoint(lat, lon)


@dataclass
class GeographicEmbedding:
    """AS centres of gravity and interconnection-point locations."""

    as_locations: dict[int, GeoPoint] = field(default_factory=dict)
    link_locations: dict[frozenset[int], tuple[GeoPoint, ...]] = field(default_factory=dict)

    def location_of(self, asn: int) -> GeoPoint:
        """Centre of gravity of an AS."""
        try:
            return self.as_locations[asn]
        except KeyError:
            raise KeyError(f"no geographic location known for AS {asn}") from None

    def interconnection_points(self, left: int, right: int) -> tuple[GeoPoint, ...]:
        """Known interconnection points of the link between two ASes.

        Falls back to the midpoint of the two AS centres when no explicit
        interconnection location is known, mirroring how missing entries
        of the CAIDA geographic dataset are typically handled.
        """
        points = self.link_locations.get(frozenset((left, right)))
        if points:
            return points
        a = self.location_of(left)
        b = self.location_of(right)
        return (GeoPoint((a.latitude + b.latitude) / 2.0, (a.longitude + b.longitude) / 2.0),)

    def path_geodistance(self, path: tuple[int, ...]) -> float:
        """Geodistance of an AS-level path, in kilometres.

        For a length-3 path ``(A1, A2, A3)`` this is
        ``d(A1, l12) + d(l12, l23) + d(l23, A3)`` minimized over the
        interconnection points ``l12`` of link (A1, A2) and ``l23`` of
        link (A2, A3), exactly as defined in §VI-B.  Longer paths
        generalize the same construction; single-link paths use the
        distance from source AS to interconnection point to destination
        AS.
        """
        if len(path) < 2:
            return 0.0
        source = self.location_of(path[0])
        destination = self.location_of(path[-1])
        link_point_options = [
            self.interconnection_points(path[i], path[i + 1])
            for i in range(len(path) - 1)
        ]
        # Dynamic programming over link interconnection-point choices:
        # state = (link index, chosen point), value = best partial distance.
        best: dict[int, float] = {}
        for index, point in enumerate(link_point_options[0]):
            best[index] = haversine_km(source, point)
        for link_index in range(1, len(link_point_options)):
            next_best: dict[int, float] = {}
            for next_index, next_point in enumerate(link_point_options[link_index]):
                candidates = [
                    value + haversine_km(link_point_options[link_index - 1][prev_index], next_point)
                    for prev_index, value in best.items()
                ]
                next_best[next_index] = min(candidates)
            best = next_best
        last_points = link_point_options[-1]
        return min(
            value + haversine_km(last_points[index], destination)
            for index, value in best.items()
        )

    def path_geodistances(
        self, sources: np.ndarray, transits: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        """:meth:`path_geodistance` of every length-3 path of the ASN columns.

        Each distinct link's interconnection points are looked up once
        and padded to ``m`` slots, the most any link of the batch has.
        The haversine runs once per (source, first-link point) pair, per
        (last-link point, destination) pair, and per pair of points of
        each path.  The DP then runs over ``(n, m)`` and ``(n, m, m)``
        arrays with ``inf`` in empty slots; ``inf`` never wins a minimum.
        """
        lefts, rights, first, second = path_links(sources, transits, destinations)
        ends, end_of = np.unique(np.concatenate([sources, destinations]), return_inverse=True)
        points = [self.location_of(asn) for asn in ends.tolist()]
        counts = []
        for left, right in zip(lefts, rights):
            link_points = self.interconnection_points(left, right)
            counts.append(len(link_points))
            points.extend(link_points)
        radians = [math.radians(point.latitude) for point in points]
        latitudes = np.array(radians)
        longitudes = np.array([math.radians(point.longitude) for point in points])
        cosines = np.fromiter(map(math.cos, radians), dtype=np.float64, count=len(points))

        # slot[k, i] is the point id of link k's i-th interconnection point.
        sizes = np.array(counts, dtype=np.int64)
        width = int(sizes.max(initial=1))
        filled = np.arange(width) < sizes[:, None]
        slot = (len(ends) + np.cumsum(sizes) - sizes)[:, None] + np.arange(width)

        def haversines(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
            """``inf``-padded haversines of the point pairs where ``mask`` is set."""
            distances = np.full(mask.shape, np.inf)
            distances[mask] = _haversines(latitudes, longitudes, cosines, a, b)
            return distances

        def end_hops(end: np.ndarray, link: np.ndarray) -> tuple[np.ndarray, ...]:
            """The end point id and link point id of every distinct (end AS, link) pair."""
            keys, row_of = np.unique(end * len(sizes) + link, return_inverse=True)
            end, link = np.divmod(keys, len(sizes))
            filled_slots = filled[link]
            end_ids = np.broadcast_to(end[:, None], filled_slots.shape)[filled_slots]
            return end_ids, slot[link][filled_slots], filled_slots, row_of

        n = len(first)
        source, first_point, first_filled, first_row = end_hops(end_of[:n], first)
        to_first = haversines(source, first_point, first_filled)[first_row]
        destination, last_point, last_filled, last_row = end_hops(end_of[n:], second)
        from_last = haversines(last_point, destination, last_filled)[last_row]
        pair_filled = filled[first][:, :, None] & filled[second][:, None, :]
        middle = haversines(
            np.broadcast_to(slot[first][:, :, None], pair_filled.shape)[pair_filled],
            np.broadcast_to(slot[second][:, None, :], pair_filled.shape)[pair_filled],
            pair_filled,
        )
        # min_q(min_p(h(S, p) + h(p, q)) + h(q, D)), as path_geodistance's DP.
        best = (to_first[:, :, None] + middle).min(axis=1)
        return (best + from_last).min(axis=1)


class SyntheticGeographyGenerator:
    """Places ASes around regional hubs and links at plausible locations."""

    def __init__(
        self,
        region_hubs: tuple[tuple[float, float], ...] = DEFAULT_REGION_HUBS,
        jitter_degrees: float = 8.0,
        seed: int = 2021,
    ) -> None:
        if not region_hubs:
            raise ValueError("at least one region hub is required")
        self.region_hubs = tuple(GeoPoint(lat, lon) for lat, lon in region_hubs)
        self.jitter_degrees = jitter_degrees
        self._rng = np.random.default_rng(seed)

    def embed(self, graph: ASGraph) -> GeographicEmbedding:
        """Assign every AS and every link of ``graph`` a location."""
        embedding = GeographicEmbedding()
        for asn in graph:
            hub = self.region_hubs[int(self._rng.integers(0, len(self.region_hubs)))]
            embedding.as_locations[asn] = self._jitter(hub)
        for link in graph.links:
            a = embedding.as_locations[link.first]
            b = embedding.as_locations[link.second]
            count = int(self._rng.integers(1, 4))
            points = []
            for _ in range(count):
                # Interconnection points lie between the endpoints with
                # some noise, as IXPs typically do.
                mix = float(self._rng.uniform(0.2, 0.8))
                base = GeoPoint(
                    a.latitude + mix * (b.latitude - a.latitude),
                    a.longitude + mix * (b.longitude - a.longitude),
                )
                points.append(self._jitter(base, scale=0.25))
            embedding.link_locations[link.endpoints] = tuple(points)
        return embedding

    def _jitter(self, point: GeoPoint, scale: float = 1.0) -> GeoPoint:
        lat = point.latitude + float(self._rng.normal(0.0, self.jitter_degrees * scale))
        lon = point.longitude + float(self._rng.normal(0.0, self.jitter_degrees * scale))
        lat = max(-85.0, min(85.0, lat))
        lon = ((lon + 180.0) % 360.0) - 180.0
        return GeoPoint(lat, lon)

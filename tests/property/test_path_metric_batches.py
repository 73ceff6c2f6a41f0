"""The batch path metrics equal the per-path methods bit for bit.

:meth:`GeographicEmbedding.path_geodistances` and
:meth:`LinkCapacityModel.path_bandwidths` value ASN columns of length-3
paths; each entry must have the bits of :meth:`path_geodistance` /
:meth:`path_bandwidth` on that path.  The columns are arbitrary: paths
repeat, reuse links in both directions and run through ASes at or above
2**31, links carry zero to four interconnection points (none or an
empty tuple falls back to the midpoint), and capacities tie.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.bandwidth import LinkCapacityModel
from repro.topology.geography import GeographicEmbedding, GeoPoint

ASNS = (1, 2, 3, 4, 5, 4_200_000_001, 4_200_000_002)

points = st.builds(
    GeoPoint,
    st.floats(-90.0, 90.0, allow_nan=False),
    st.floats(-180.0, 180.0, allow_nan=False),
)
paths = st.lists(st.tuples(*[st.sampled_from(ASNS)] * 3), max_size=40)


def columns(drawn):
    array = np.array(drawn, dtype=np.int64).reshape(-1, 3)
    return array[:, 0], array[:, 1], array[:, 2]


def links_of(drawn):
    return {frozenset(pair) for path in drawn for pair in (path[:2], path[1:])}


def bits(values):
    return [float(value).hex() for value in values]


@given(paths, st.data())
@settings(max_examples=200, deadline=None)
def test_geodistances_equal_the_per_path_values(drawn, data):
    embedding = GeographicEmbedding(as_locations={asn: data.draw(points) for asn in ASNS})
    for link in sorted(links_of(drawn), key=sorted):
        located = data.draw(st.one_of(st.none(), st.lists(points, max_size=4).map(tuple)))
        if located is not None:
            embedding.link_locations[link] = located
    batch = embedding.path_geodistances(*columns(drawn))
    assert batch.dtype == np.float64
    assert bits(batch) == bits(embedding.path_geodistance(path) for path in drawn)


@given(paths, st.data())
@settings(max_examples=200, deadline=None)
def test_bandwidths_equal_the_per_path_values(drawn, data):
    capacity = st.sampled_from([0.0, 1.0, 2.5, 7.0, 1e300, float("inf")])
    model = LinkCapacityModel()
    for link in sorted(links_of(drawn), key=sorted):
        model.set_capacity(min(link), max(link), data.draw(capacity))
    batch = model.path_bandwidths(*columns(drawn))
    assert batch.dtype == np.float64
    assert bits(batch) == bits(model.path_bandwidth(path) for path in drawn)


def test_missing_location_or_capacity_raises_key_error():
    drawn = [(1, 2, 3)]
    embedding = GeographicEmbedding(as_locations={1: GeoPoint(0.0, 0.0), 2: GeoPoint(1.0, 1.0)})
    with pytest.raises(KeyError, match="AS 3"):
        embedding.path_geodistances(*columns(drawn))
    model = LinkCapacityModel()
    model.set_capacity(1, 2, 1.0)
    with pytest.raises(KeyError, match="2 -- 3"):
        model.path_bandwidths(*columns(drawn))

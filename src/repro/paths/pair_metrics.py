"""Pair-metric analysis of MA paths (§VI-B/C, Figs. 5 and 6).

For every analyzed AS pair connected by at least one length-3 GRC path,
the analysis takes the minimum, median, and maximum of a per-path metric
over the GRC paths and counts how many of the additional MA paths
between the pair beat each of those values.  For the pairs whose best
path improves, it also reports the relative gain.

Fig. 5 runs it on geodistance (:func:`analyze_geodistance`, shorter is
better) and Fig. 6 on bottleneck bandwidth under the degree-gravity
capacity model (:func:`analyze_bandwidth`, wider is better); the two
differ only in the per-path metric and its direction.

**Arrays, exactly.**  Each sampled source's GRC paths and new MA paths
(straight from the index's packed keys) become ASN columns, and one
batch metric call values the columns of a block of sources
(:meth:`~repro.topology.geography.GeographicEmbedding.path_geodistances`
or :meth:`~repro.topology.bandwidth.LinkCapacityModel.path_bandwidths`,
bit-identical to the per-path methods; their modules say which
operations run as arrays and which libm calls stay scalar).  A sort by
destination then groups each source's values.  Min and max are the
ends of each sorted run and the median is its middle element, or
``(a + b) / 2`` of the two middle elements, which is what ``np.median``
computes.  The figure-side counts and gains compare one concatenated
array of MA values with per-record thresholds.  Comparisons, and the
gain's one subtraction and one division, round the same in NumPy as in
Python, so the results equal :meth:`PairMetricRecord.paths_beating` and
:attr:`PairMetricRecord.relative_gain`, which remain the definition.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np

from repro.agreements.mutuality import enumerate_mutuality_agreements
from repro.core import PathEngine, path_engine_for
from repro.paths.diversity import sample_ases
from repro.paths.ma_paths import MAPathIndex, build_ma_path_index
from repro.paths.metrics import EmpiricalCDF
from repro.topology.bandwidth import LinkCapacityModel
from repro.topology.geography import GeographicEmbedding
from repro.topology.graph import ASGraph

@dataclass(frozen=True)
class PairMetric:
    """The direction and labels of a per-path metric of the pair analysis."""

    lower_is_better: bool
    #: Name of the relative-gain CDF (Figs. 5b/6b).
    gain_label: str

    def condition_label(self, condition: str) -> str:
        """Table label of MA paths beating the GRC ``condition`` value."""
        return f"{'<' if self.lower_is_better else '>'} GRC {condition}"


GEODISTANCE = PairMetric(lower_is_better=True, gain_label="relative geodistance reduction")
BANDWIDTH = PairMetric(lower_is_better=False, gain_label="relative bandwidth increase")


@dataclass(frozen=True)
class PairMetricRecord:
    """Metric comparison for one (source, destination) AS pair."""

    source: int
    destination: int
    grc_min: float
    grc_median: float
    grc_max: float
    ma_values: tuple[float, ...]
    metric: PairMetric

    def paths_beating(self, condition: str) -> int:
        """MA paths strictly better than the GRC ``min``/``median``/``max`` value."""
        threshold = getattr(self, f"grc_{condition}")
        if self.metric.lower_is_better:
            return sum(1 for value in self.ma_values if value < threshold)
        return sum(1 for value in self.ma_values if value > threshold)

    @property
    def best_ma_value(self) -> float:
        """Metric of the best MA path (inf or 0 when there is none)."""
        if self.metric.lower_is_better:
            return min(self.ma_values, default=math.inf)
        return max(self.ma_values, default=0.0)

    @property
    def relative_gain(self) -> float | None:
        """Relative gain of the best MA path over the best GRC path, if any.

        ``(grc_min − best) / grc_min`` when lower is better,
        ``(best − grc_max) / grc_max`` when higher is better; ``None``
        when the best MA path does not strictly beat the best GRC path
        or that path's value is not positive.
        """
        best = self.best_ma_value
        if self.metric.lower_is_better:
            if best >= self.grc_min or self.grc_min <= 0.0:
                return None
            return (self.grc_min - best) / self.grc_min
        if best <= self.grc_max or self.grc_max <= 0.0:
            return None
        return (best - self.grc_max) / self.grc_max


@dataclass
class PairMetricResult:
    """Full result of a pair-metric analysis (Fig. 5 or Fig. 6)."""

    metric: PairMetric
    records: list[PairMetricRecord] = field(default_factory=list)

    def _ma_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Every record's MA values, concatenated, and each record's value count."""
        groups = list(map(attrgetter("ma_values"), self.records))
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        values = np.fromiter(
            chain.from_iterable(groups), dtype=np.float64, count=int(sizes.sum())
        )
        return values, sizes

    def _thresholds(self, condition: str) -> np.ndarray:
        return np.fromiter(
            map(attrgetter(f"grc_{condition}"), self.records),
            dtype=np.float64,
            count=len(self.records),
        )

    def count_cdf(self, condition: str) -> EmpiricalCDF:
        """CDF over AS pairs of the MA paths beating the GRC ``condition`` value.

        ``condition`` is ``"min"``, ``"median"``, or ``"max"`` (the
        three series of Figs. 5a/6a).
        """
        values, sizes = self._ma_columns()
        thresholds = np.repeat(self._thresholds(condition), sizes)
        beating = values < thresholds if self.metric.lower_is_better else values > thresholds
        running = np.concatenate([[0], np.cumsum(beating)])
        ends = np.cumsum(sizes)
        return EmpiricalCDF(tuple((running[ends] - running[ends - sizes]).tolist()))

    def gain_cdf(self) -> EmpiricalCDF:
        """CDF of the relative gain among benefiting pairs (Figs. 5b/6b)."""
        values, sizes = self._ma_columns()
        some = sizes > 0
        starts = (np.cumsum(sizes) - sizes)[some]
        if not len(starts):
            return EmpiricalCDF(())
        if self.metric.lower_is_better:
            grc = self._thresholds("min")[some]
            best = np.minimum.reduceat(values, starts)
            keep = (best < grc) & (grc > 0.0)
            gains = (grc[keep] - best[keep]) / grc[keep]
        else:
            grc = self._thresholds("max")[some]
            best = np.maximum.reduceat(values, starts)
            keep = (best > grc) & (grc > 0.0)
            gains = (best[keep] - grc[keep]) / grc[keep]
        return EmpiricalCDF(tuple(gains.tolist()))

    def fraction_of_pairs_improving(self, condition: str, at_least: int = 1) -> float:
        """Fraction of AS pairs gaining ``at_least`` paths beating the condition."""
        if not self.records:
            return 0.0
        return self.count_cdf(condition).fraction_at_least(at_least)


#: Paths per batch metric call.  Sources join a block until it holds
#: this many paths: the working arrays stay at a few MB, and a link
#: shared by several sources' paths is looked up once per block.
BLOCK_PATHS = 1 << 15


@dataclass(frozen=True)
class _SourcePaths:
    """One sampled source's GRC paths, then its new MA paths, as columns."""

    source: int
    grc_count: int
    transits: np.ndarray
    destinations: np.ndarray


def _source_paths(engine: PathEngine, index: MAPathIndex, source: int) -> _SourcePaths:
    grc_paths = engine.paths(source)
    grc = np.fromiter(
        chain.from_iterable(grc_paths), dtype=np.int64, count=3 * len(grc_paths)
    ).reshape(-1, 3)
    keys = index.new_paths(source, grc_paths).all
    partners, targets = np.divmod(keys, max(len(index.asns), 1))
    return _SourcePaths(
        source,
        len(grc),
        np.concatenate([grc[:, 1], index.asns[partners]]),
        np.concatenate([grc[:, 2], index.asns[targets]]),
    )


def _blocks(sources: Iterable[_SourcePaths]) -> Iterator[list[_SourcePaths]]:
    """Consecutive sources, grouped until a group holds ``BLOCK_PATHS`` paths."""
    block: list[_SourcePaths] = []
    pending = 0
    for paths in sources:
        block.append(paths)
        pending += len(paths.transits)
        if pending >= BLOCK_PATHS:
            yield block
            block, pending = [], 0
    if block:
        yield block


def _pair_records(
    paths: _SourcePaths, values: np.ndarray, metric: PairMetric
) -> list[PairMetricRecord]:
    """One record per GRC destination of a source, in order of its first GRC path."""
    split = paths.grc_count
    order = np.lexsort((values[:split], paths.destinations[:split]))
    destinations, grc_values = paths.destinations[order], values[order]
    starts = np.flatnonzero(np.diff(destinations, prepend=destinations[0] - 1))
    sizes = np.diff(np.append(starts, split))
    lowest, highest = grc_values[starts], grc_values[starts + sizes - 1]
    median = grc_values[starts + sizes // 2]
    even = sizes % 2 == 0
    median[even] = (grc_values[(starts + sizes // 2 - 1)[even]] + median[even]) / 2.0
    targets = destinations[starts]
    # A stable sort keeps each destination's MA values in index key order.
    ma_order = np.argsort(paths.destinations[split:], kind="stable")
    ma_destinations = paths.destinations[split:][ma_order]
    ma_values = values[split:][ma_order].tolist()
    rows = zip(
        targets.tolist(),
        lowest.tolist(),
        median.tolist(),
        highest.tolist(),
        np.searchsorted(ma_destinations, targets, side="left").tolist(),
        np.searchsorted(ma_destinations, targets, side="right").tolist(),
    )
    records = [
        PairMetricRecord(
            source=paths.source,
            destination=destination,
            grc_min=low,
            grc_median=middle,
            grc_max=high,
            ma_values=tuple(ma_values[lo:hi]),
            metric=metric,
        )
        for destination, low, middle, high, lo, hi in rows
    ]
    first_path = np.minimum.reduceat(order, starts)
    return [records[k] for k in np.argsort(first_path).tolist()]


def _analyze_pairs(
    graph: ASGraph,
    metric: PairMetric,
    path_values: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    *,
    index: MAPathIndex | None,
    sample_size: int,
    seed: int,
    engine: PathEngine | None,
) -> PairMetricResult:
    """Build one record per AS pair reachable over GRC from a sampled source.

    ``path_values`` is a batch metric over ``(sources, transits,
    destinations)`` ASN columns, called once per block of sources.
    """
    if index is None:
        index = build_ma_path_index(list(enumerate_mutuality_agreements(graph)))
    if engine is None:
        engine = path_engine_for(graph)
    result = PairMetricResult(metric)
    sampled = (
        _source_paths(engine, index, source)
        for source in sample_ases(graph, sample_size, seed=seed)
        if engine.paths(source)
    )
    for block in _blocks(sampled):
        sizes = [len(paths.transits) for paths in block]
        values = path_values(
            np.repeat([paths.source for paths in block], sizes),
            np.concatenate([paths.transits for paths in block]),
            np.concatenate([paths.destinations for paths in block]),
        )
        for paths, source_values in zip(block, np.split(values, np.cumsum(sizes)[:-1])):
            result.records.extend(_pair_records(paths, source_values, metric))
    return result


def analyze_geodistance(
    graph: ASGraph,
    embedding: GeographicEmbedding,
    *,
    index: MAPathIndex | None = None,
    sample_size: int = 100,
    seed: int = 0,
    engine: PathEngine | None = None,
) -> PairMetricResult:
    """Run the Fig. 5 geodistance analysis over a sample of source ASes.

    ``index`` defaults to the MA path index of all mutuality-based
    agreements of the graph, ``engine`` to the graph's shared compiled
    path engine.
    """
    return _analyze_pairs(
        graph,
        GEODISTANCE,
        embedding.path_geodistances,
        index=index,
        sample_size=sample_size,
        seed=seed,
        engine=engine,
    )


def analyze_bandwidth(
    graph: ASGraph,
    capacities: LinkCapacityModel,
    *,
    index: MAPathIndex | None = None,
    sample_size: int = 100,
    seed: int = 0,
    engine: PathEngine | None = None,
) -> PairMetricResult:
    """Run the Fig. 6 bandwidth analysis over a sample of source ASes.

    Defaults as for :func:`analyze_geodistance`.
    """
    return _analyze_pairs(
        graph,
        BANDWIDTH,
        capacities.path_bandwidths,
        index=index,
        sample_size=sample_size,
        seed=seed,
        engine=engine,
    )

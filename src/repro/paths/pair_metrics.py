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
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.agreements.mutuality import enumerate_mutuality_agreements
from repro.core import PathEngine, path_engine_for
from repro.paths.diversity import sample_ases
from repro.paths.ma_paths import MAPathIndex, build_ma_path_index
from repro.paths.metrics import EmpiricalCDF
from repro.topology.bandwidth import LinkCapacityModel
from repro.topology.geography import GeographicEmbedding
from repro.topology.graph import ASGraph

Path3 = tuple[int, int, int]


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

    def count_cdf(self, condition: str) -> EmpiricalCDF:
        """CDF over AS pairs of the MA paths beating the GRC ``condition`` value.

        ``condition`` is ``"min"``, ``"median"``, or ``"max"`` (the
        three series of Figs. 5a/6a).
        """
        return EmpiricalCDF(tuple(r.paths_beating(condition) for r in self.records))

    def gain_cdf(self) -> EmpiricalCDF:
        """CDF of the relative gain among benefiting pairs (Figs. 5b/6b)."""
        gains = (r.relative_gain for r in self.records)
        return EmpiricalCDF(tuple(gain for gain in gains if gain is not None))

    def fraction_of_pairs_improving(self, condition: str, at_least: int = 1) -> float:
        """Fraction of AS pairs gaining ``at_least`` paths beating the condition."""
        if not self.records:
            return 0.0
        return self.count_cdf(condition).fraction_at_least(at_least)


def group_by_pair(
    paths: Iterable[Path3], value_of_path: Callable[[Path3], float]
) -> dict[tuple[int, int], list[float]]:
    """Group length-3 paths by (source, destination) with their metric values."""
    grouped: dict[tuple[int, int], list[float]] = defaultdict(list)
    for path in paths:
        grouped[(path[0], path[2])].append(value_of_path(path))
    return grouped


def _analyze_pairs(
    graph: ASGraph,
    metric: PairMetric,
    value_of_path: Callable[[Path3], float],
    *,
    index: MAPathIndex | None,
    sample_size: int,
    seed: int,
    engine: PathEngine | None,
) -> PairMetricResult:
    """Build one record per AS pair reachable over GRC from a sampled source."""
    if index is None:
        index = build_ma_path_index(list(enumerate_mutuality_agreements(graph)))
    if engine is None:
        engine = path_engine_for(graph)
    result = PairMetricResult(metric)
    for source in sample_ases(graph, sample_size, seed=seed):
        grc_paths = engine.paths(source)
        if not grc_paths:
            continue
        grc_by_pair = group_by_pair(grc_paths, value_of_path)
        ma_by_pair = group_by_pair(index.all_paths(source) - grc_paths, value_of_path)
        for (src, dst), grc_values in grc_by_pair.items():
            values = np.array(grc_values)
            result.records.append(
                PairMetricRecord(
                    source=src,
                    destination=dst,
                    grc_min=float(np.min(values)),
                    grc_median=float(np.median(values)),
                    grc_max=float(np.max(values)),
                    ma_values=tuple(ma_by_pair.get((src, dst), ())),
                    metric=metric,
                )
            )
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
        embedding.path_geodistance,
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
        capacities.path_bandwidth,
        index=index,
        sample_size=sample_size,
        seed=seed,
        engine=engine,
    )

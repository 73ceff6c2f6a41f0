"""Experiment: Fig. 6 — bandwidth of additional MA paths.

Uses the same synthetic topology and MA enumeration as the other
path-diversity experiments and the degree-gravity capacity model of the
paper, and runs the pair-metric analysis of
:mod:`repro.paths.pair_metrics` on bottleneck bandwidth: per analyzed AS
pair, the MA paths wider than the maximum / median / minimum bandwidth
of the GRC paths (Fig. 6a), plus the relative bandwidth increase among
the benefiting pairs (Fig. 6b).  The figure result is the shared
:class:`~repro.experiments.reporting.PairMetricFigure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments.fig3_paths import PathDiversityConfig
from repro.experiments.reporting import MEDIAN_GAIN, PairMetricFigure
from repro.paths.pair_metrics import analyze_bandwidth
from repro.topology.bandwidth import degree_gravity_capacities

if TYPE_CHECKING:
    from repro.experiments.context import DiversityContext


@dataclass(frozen=True)
class Fig6Config:
    """Parameters of the Fig. 6 experiment."""

    diversity: PathDiversityConfig = PathDiversityConfig(sample_size=60)
    pair_sample_size: int = 60


#: (metric, paper value, quantity) rows of the headline comparisons.
PAPER = (
    ("AS pairs gaining ≥1 path above the GRC maximum bandwidth", "≈ 35%", ("max", 1)),
    ("median relative bandwidth increase among benefiting pairs", "≈ 150%", MEDIAN_GAIN),
)

#: (key, quantity) rows of the figure's metrics.
METRIC_KEYS = (
    ("pairs_above_grc_max", ("max", 1)),
    ("pairs_above_grc_min", ("min", 1)),
    ("median_increase", MEDIAN_GAIN),
)


def run_fig6(
    config: Fig6Config | None = None,
    *,
    context: "DiversityContext | None" = None,
) -> PairMetricFigure:
    """Run the Fig. 6 experiment.

    Shares the topology, compiled path engine, and MA path index with
    the other figures when the combined runner passes a ``context``;
    only the degree-gravity capacity model is figure-specific.
    """
    from repro.experiments.context import context_for

    config = config or Fig6Config()
    ctx = context_for(config.diversity, context)
    capacities = degree_gravity_capacities(ctx.topology.graph)
    analysis = analyze_bandwidth(
        ctx.topology.graph,
        capacities,
        index=ctx.index,
        sample_size=config.pair_sample_size,
        seed=config.diversity.seed,
        engine=ctx.engine,
    )
    return PairMetricFigure(analysis, ctx.index.num_agreements, PAPER, METRIC_KEYS)

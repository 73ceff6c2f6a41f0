"""Experiment: Fig. 5 — geodistance of additional MA paths.

Builds the synthetic topology plus a synthetic geographic embedding
(the GeoLite2/CAIDA-geo substitution, see DESIGN.md), enumerates all
MAs, and runs the pair-metric analysis of
:mod:`repro.paths.pair_metrics` on geodistance: per analyzed AS pair,
the MA paths shorter than the minimum / median / maximum geodistance of
the GRC paths (Fig. 5a), plus the relative geodistance reduction among
the benefiting pairs (Fig. 5b).  The figure result is the shared
:class:`~repro.experiments.reporting.PairMetricFigure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments.fig3_paths import PathDiversityConfig
from repro.experiments.reporting import MEDIAN_GAIN, PairMetricFigure
from repro.paths.pair_metrics import analyze_geodistance
from repro.topology.geography import SyntheticGeographyGenerator

if TYPE_CHECKING:
    from repro.experiments.context import DiversityContext


@dataclass(frozen=True)
class Fig5Config:
    """Parameters of the Fig. 5 experiment."""

    diversity: PathDiversityConfig = PathDiversityConfig(sample_size=60)
    pair_sample_size: int = 60
    geography_seed: int = 11


#: (metric, paper value, quantity) rows of the headline comparisons.
PAPER = (
    ("AS pairs gaining ≥1 path below the GRC minimum geodistance", "≈ 50%", ("min", 1)),
    ("AS pairs gaining ≥5 paths below the GRC minimum geodistance", "≈ 25%", ("min", 5)),
    ("median relative geodistance reduction among benefiting pairs", "≈ 24%", MEDIAN_GAIN),
)

#: (key, quantity) rows of the figure's metrics.
METRIC_KEYS = (
    ("pairs_below_grc_min", ("min", 1)),
    ("pairs_below_grc_min_5", ("min", 5)),
    ("median_reduction", MEDIAN_GAIN),
)


def run_fig5(
    config: Fig5Config | None = None,
    *,
    context: "DiversityContext | None" = None,
) -> PairMetricFigure:
    """Run the Fig. 5 experiment.

    Shares the topology, compiled path engine, and MA path index with
    the other figures when the combined runner passes a ``context``;
    only the geographic embedding is figure-specific.
    """
    from repro.experiments.context import context_for

    config = config or Fig5Config()
    ctx = context_for(config.diversity, context)
    embedding = SyntheticGeographyGenerator(seed=config.geography_seed).embed(
        ctx.topology.graph
    )
    analysis = analyze_geodistance(
        ctx.topology.graph,
        embedding,
        index=ctx.index,
        sample_size=config.pair_sample_size,
        seed=config.diversity.seed,
        engine=ctx.engine,
    )
    return PairMetricFigure(analysis, ctx.index.num_agreements, PAPER, METRIC_KEYS)

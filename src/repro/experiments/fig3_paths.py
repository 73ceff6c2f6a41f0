"""Experiment: Fig. 3 — length-3 paths per AS under MA conclusion degrees.

Builds a synthetic Internet-like topology (the CAIDA substitution, see
DESIGN.md), enumerates all maximal mutuality-based agreements, and
computes, for a random sample of ASes, the number of length-3 paths
under the six conclusion scenarios of the paper (GRC, MA* Top 1/5/50,
MA*, MA).  The §VI-A headline statistics (average / maximum additional
paths) are reported alongside.  The figure result is the shared
:class:`~repro.experiments.reporting.PathCountFigure`, counting paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments.reporting import PaperComparison, PathCountFigure
from repro.paths.diversity import DiversityResult, analyze_path_diversity

if TYPE_CHECKING:
    from repro.experiments.context import DiversityContext


@dataclass(frozen=True)
class PathDiversityConfig:
    """Parameters shared by the Fig. 3 and Fig. 4 experiments."""

    num_tier1: int = 8
    num_tier2: int = 30
    num_tier3: int = 100
    num_stubs: int = 350
    sample_size: int = 200
    seed: int = 2021


#: Table headers of the per-scenario distribution.
HEADERS = ("scenario", "mean paths", "median paths", "max paths")

#: Caption above the CDF series block of the text report.
SERIES_CAPTION = "CDF series (paths, fraction of ASes):"

#: Scenarios whose mean path count goes into the figure's metrics.
MEAN_SCENARIOS = ("GRC", "MA*", "MA")


def comparisons(diversity: DiversityResult) -> list[PaperComparison]:
    """Headline paper-vs-measured comparisons (shape, not absolute scale)."""
    grc_max = diversity.path_cdf("GRC").maximum
    ma_cdf = diversity.path_cdf("MA")
    ma_star_cdf = diversity.path_cdf("MA*")
    top1_cdf = diversity.path_cdf("MA* (Top 1)")
    summary = diversity.additional_path_summary()
    fraction_exceeding_grc_max = ma_cdf.fraction_above(grc_max)
    return [
        PaperComparison(
            metric="ASes exceeding the GRC maximum path count once all MAs concluded",
            paper_value="20% exceed 45k (the GRC max)",
            measured_value=f"{fraction_exceeding_grc_max:.0%} exceed {grc_max:.0f}",
            note="absolute counts differ on the synthetic topology",
        ),
        PaperComparison(
            metric="average additional length-3 paths per AS",
            paper_value="22,891 (max 196,796)",
            measured_value=f"{summary['mean']:.0f} (max {summary['max']:.0f})",
        ),
        PaperComparison(
            metric="MA* close to MA (most gains are directly negotiated)",
            paper_value="CDFs nearly coincide",
            measured_value=(
                f"mean MA* = {ma_star_cdf.mean:.0f} vs mean MA = {ma_cdf.mean:.0f}"
            ),
        ),
        PaperComparison(
            metric="a single MA already yields large gains",
            paper_value="Top-1 gains several thousand paths",
            measured_value=(
                f"mean Top-1 gain = "
                f"{top1_cdf.mean - diversity.path_cdf('GRC').mean:.0f} paths"
            ),
        ),
    ]


def run_fig3(
    config: PathDiversityConfig | None = None,
    *,
    context: "DiversityContext | None" = None,
) -> PathCountFigure:
    """Run the Fig. 3 experiment.

    ``context`` lets the combined runner share one topology, compiled
    path engine, and MA enumeration across Figs. 3–6; standalone calls
    build their own.
    """
    from repro.experiments.context import context_for

    config = config or PathDiversityConfig()
    ctx = context_for(config, context)
    return PathCountFigure(
        shared_diversity(ctx),
        len(ctx.agreements),
        "paths",
        comparisons,
        HEADERS,
        SERIES_CAPTION,
        MEAN_SCENARIOS,
    )


def shared_diversity(ctx: "DiversityContext") -> DiversityResult:
    """The Figs. 3/4 analysis of a context, computed once and then shared."""
    if ctx.diversity is None:
        ctx.diversity = analyze_path_diversity(
            ctx.topology.graph,
            sample_size=ctx.config.sample_size,
            seed=ctx.config.seed,
            engine=ctx.engine,
            index=ctx.index,
        )
    return ctx.diversity

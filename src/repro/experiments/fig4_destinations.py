"""Experiment: Fig. 4 — destinations reachable over length-3 paths.

Same workload as Fig. 3 (the two figures share the analysis pass in the
paper as well); the reported quantity is the number of destinations
reachable over length-3 paths under the six MA-conclusion scenarios,
plus the §VI-A headline statistics on additionally reachable
destinations.  The figure result is the shared
:class:`~repro.experiments.reporting.PathCountFigure`, counting
destinations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments.fig3_paths import PathDiversityConfig, shared_diversity
from repro.experiments.reporting import PaperComparison, PathCountFigure
from repro.paths.diversity import DiversityResult

# Fig. 4 reads Fig. 3's analysis (``shared_diversity``); the name stays
# here because perfbench's traced run wraps it in both figure modules.
from repro.paths.diversity import analyze_path_diversity  # noqa: F401

if TYPE_CHECKING:
    from repro.experiments.context import DiversityContext


#: Table headers of the per-scenario distribution.
HEADERS = ("scenario", "mean destinations", "median destinations", "max destinations")

#: Caption above the CDF series block of the text report.
SERIES_CAPTION = "CDF series (destinations, fraction of ASes):"

#: Scenarios whose mean destination count goes into the figure's metrics.
MEAN_SCENARIOS = ("GRC", "MA")


def comparisons(diversity: DiversityResult) -> list[PaperComparison]:
    """Headline paper-vs-measured comparisons."""
    grc_cdf = diversity.destination_cdf("GRC")
    ma_cdf = diversity.destination_cdf("MA")
    summary = diversity.additional_destination_summary()
    # The paper anchors the comparison at 5,000 destinations on the
    # real topology; on the synthetic topology the analogous anchor
    # is the GRC median.
    anchor = grc_cdf.median
    return [
        PaperComparison(
            metric="ASes reaching more destinations than the GRC median once all MAs concluded",
            paper_value="40% → 57% reach >5,000 destinations",
            measured_value=(
                f"{grc_cdf.fraction_above(anchor):.0%} → "
                f"{ma_cdf.fraction_above(anchor):.0%} reach >{anchor:.0f}"
            ),
            note="anchor rescaled to the synthetic topology",
        ),
        PaperComparison(
            metric="average additionally reachable destinations per AS",
            paper_value="2,181 (max 7,144)",
            measured_value=f"{summary['mean']:.0f} (max {summary['max']:.0f})",
        ),
        PaperComparison(
            metric="destination gains are more broadly distributed than path gains",
            paper_value="yes",
            measured_value=(
                "yes"
                if _relative_spread(diversity, "destinations")
                <= _relative_spread(diversity, "paths")
                else "no"
            ),
            note="compared via max/mean ratio of the additional gains",
        ),
    ]


def _relative_spread(diversity: DiversityResult, kind: str) -> float:
    """Max/mean ratio of the additional gains (a simple spread measure)."""
    if kind == "paths":
        summary = diversity.additional_path_summary()
    else:
        summary = diversity.additional_destination_summary()
    if summary["mean"] <= 0.0:
        return float("inf")
    return summary["max"] / summary["mean"]


def run_fig4(
    config: PathDiversityConfig | None = None,
    *,
    context: "DiversityContext | None" = None,
) -> PathCountFigure:
    """Run the Fig. 4 experiment.

    Shares the topology, compiled path engine, and MA enumeration with
    the other figures when the combined runner passes a ``context``,
    and the diversity analysis itself with Fig. 3.
    """
    from repro.experiments.context import context_for

    config = config or PathDiversityConfig()
    ctx = context_for(config, context)
    return PathCountFigure(
        shared_diversity(ctx),
        ctx.index.num_agreements,
        "destinations",
        comparisons,
        HEADERS,
        SERIES_CAPTION,
        MEAN_SCENARIOS,
    )

"""Experiment: Fig. 4 — destinations reachable over length-3 paths.

Same workload as Fig. 3 (the two figures share the analysis pass in the
paper as well); the reported quantity is the number of destinations
reachable over length-3 paths under the six MA-conclusion scenarios,
plus the §VI-A headline statistics on additionally reachable
destinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.fig3_paths import PathDiversityConfig, shared_diversity
from repro.experiments.reporting import (
    PaperComparison,
    SectionSeries,
    SectionTable,
    metric_value,
    render_figure_body,
)
from repro.paths.diversity import DEFAULT_SCENARIOS, DiversityResult

# Fig. 4 reads Fig. 3's analysis (``shared_diversity``); the name stays
# here because perfbench's traced run wraps it in both figure modules.
from repro.paths.diversity import analyze_path_diversity  # noqa: F401
from repro.topology.generator import GeneratedTopology

if TYPE_CHECKING:
    from repro.experiments.context import DiversityContext


@dataclass
class Fig4Result:
    """Full result of the Fig. 4 experiment."""

    diversity: DiversityResult
    topology: GeneratedTopology
    num_agreements: int
    scenarios: tuple[str, ...] = field(default=DEFAULT_SCENARIOS)

    def comparisons(self) -> list[PaperComparison]:
        """Headline paper-vs-measured comparisons."""
        grc_cdf = self.diversity.destination_cdf("GRC")
        ma_cdf = self.diversity.destination_cdf("MA")
        summary = self.diversity.additional_destination_summary()
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
                    if _relative_spread(self.diversity, "destinations")
                    <= _relative_spread(self.diversity, "paths")
                    else "no"
                ),
                note="compared via max/mean ratio of the additional gains",
            ),
        ]

    #: Caption above the CDF series block of the text report.
    SERIES_CAPTION = "CDF series (destinations, fraction of ASes):"

    def table(self) -> SectionTable:
        """The per-scenario distribution as a structured table."""
        rows = []
        for scenario in self.scenarios:
            cdf = self.diversity.destination_cdf(scenario)
            rows.append(
                (scenario, f"{cdf.mean:.0f}", f"{cdf.median:.0f}", f"{cdf.maximum:.0f}")
            )
        return SectionTable(
            headers=(
                "scenario",
                "mean destinations",
                "median destinations",
                "max destinations",
            ),
            rows=tuple(rows),
        )

    def series(self) -> tuple[SectionSeries, ...]:
        """The per-scenario CDF series with their raw values."""
        return tuple(
            SectionSeries(scenario, *self.diversity.destination_cdf(scenario).series())
            for scenario in self.scenarios
        )

    def metrics(self) -> dict[str, float | int | None]:
        """Headline numbers of the experiment, JSON-safe."""
        extra = self.diversity.additional_destination_summary()
        return {
            "num_agreements": self.num_agreements,
            "grc_mean_destinations": metric_value(
                self.diversity.destination_cdf("GRC").mean
            ),
            "ma_mean_destinations": metric_value(
                self.diversity.destination_cdf("MA").mean
            ),
            "additional_destinations_mean": metric_value(extra["mean"]),
            "additional_destinations_max": metric_value(extra["max"]),
        }

    def report(self) -> str:
        """Text report with the per-scenario distribution and the CDF series."""
        return render_figure_body(self.table(), self.SERIES_CAPTION, self.series())


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
) -> Fig4Result:
    """Run the Fig. 4 experiment.

    Shares the topology, compiled path engine, and MA enumeration with
    the other figures when the combined runner passes a ``context``,
    and the diversity analysis itself with Fig. 3.
    """
    from repro.experiments.context import context_for

    config = config or PathDiversityConfig()
    ctx = context_for(config, context)
    return Fig4Result(
        diversity=shared_diversity(ctx),
        topology=ctx.topology,
        num_agreements=len(ctx.agreements),
    )

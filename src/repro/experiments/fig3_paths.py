"""Experiment: Fig. 3 — length-3 paths per AS under MA conclusion degrees.

Builds a synthetic Internet-like topology (the CAIDA substitution, see
DESIGN.md), enumerates all maximal mutuality-based agreements, and
computes, for a random sample of ASes, the number of length-3 paths
under the six conclusion scenarios of the paper (GRC, MA* Top 1/5/50,
MA*, MA).  The §VI-A headline statistics (average / maximum additional
paths) are reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.experiments.reporting import (
    PaperComparison,
    SectionSeries,
    SectionTable,
    metric_value,
    render_figure_body,
)
from repro.paths.diversity import DEFAULT_SCENARIOS, DiversityResult, analyze_path_diversity
from repro.topology.generator import GeneratedTopology

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


@dataclass
class Fig3Result:
    """Full result of the Fig. 3 experiment."""

    diversity: DiversityResult
    topology: GeneratedTopology
    num_agreements: int
    scenarios: tuple[str, ...] = field(default=DEFAULT_SCENARIOS)

    def comparisons(self) -> list[PaperComparison]:
        """Headline paper-vs-measured comparisons (shape, not absolute scale)."""
        grc_max = self.diversity.path_cdf("GRC").maximum
        ma_cdf = self.diversity.path_cdf("MA")
        ma_star_cdf = self.diversity.path_cdf("MA*")
        top1_cdf = self.diversity.path_cdf("MA* (Top 1)")
        summary = self.diversity.additional_path_summary()
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
                    f"{top1_cdf.mean - self.diversity.path_cdf('GRC').mean:.0f} paths"
                ),
            ),
        ]

    #: Caption above the CDF series block of the text report.
    SERIES_CAPTION = "CDF series (paths, fraction of ASes):"

    def table(self) -> SectionTable:
        """The per-scenario distribution as a structured table."""
        rows = []
        for scenario in self.scenarios:
            cdf = self.diversity.path_cdf(scenario)
            rows.append(
                (scenario, f"{cdf.mean:.0f}", f"{cdf.median:.0f}", f"{cdf.maximum:.0f}")
            )
        return SectionTable(
            headers=("scenario", "mean paths", "median paths", "max paths"),
            rows=tuple(rows),
        )

    def series(self) -> tuple[SectionSeries, ...]:
        """The per-scenario CDF series with their raw values."""
        return tuple(
            SectionSeries(scenario, *self.diversity.path_cdf(scenario).series())
            for scenario in self.scenarios
        )

    def metrics(self) -> dict[str, float | int | None]:
        """Headline numbers of the experiment, JSON-safe."""
        extra = self.diversity.additional_path_summary()
        return {
            "num_agreements": self.num_agreements,
            "grc_mean_paths": metric_value(self.diversity.path_cdf("GRC").mean),
            "ma_star_mean_paths": metric_value(self.diversity.path_cdf("MA*").mean),
            "ma_mean_paths": metric_value(self.diversity.path_cdf("MA").mean),
            "additional_paths_mean": metric_value(extra["mean"]),
            "additional_paths_max": metric_value(extra["max"]),
        }

    def report(self) -> str:
        """Text report with the per-scenario distribution and the CDF series."""
        return render_figure_body(self.table(), self.SERIES_CAPTION, self.series())


def run_fig3(
    config: PathDiversityConfig | None = None,
    *,
    context: "DiversityContext | None" = None,
) -> Fig3Result:
    """Run the Fig. 3 experiment.

    ``context`` lets the combined runner share one topology, compiled
    path engine, and MA enumeration across Figs. 3–6; standalone calls
    build their own.
    """
    from repro.experiments.context import context_for

    config = config or PathDiversityConfig()
    ctx = context_for(config, context)
    return Fig3Result(
        diversity=shared_diversity(ctx),
        topology=ctx.topology,
        num_agreements=len(ctx.agreements),
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

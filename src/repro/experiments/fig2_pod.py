"""Experiment: Fig. 2 — Price of Dishonesty vs. choice-set size.

For the two uniform utility distributions ``U(1)`` (uniform on
``[−1, 1]²``) and ``U(2)`` (uniform on ``[−1/2, 1]²``), and for several
choice-set cardinalities ``W``, the experiment generates random choice
sets, finds the equilibrium of the induced bargaining game, and records
the minimum and mean Price of Dishonesty over the trials.  The paper
reports that the PoD drops with more choices and flattens out around
``W ≈ 50`` at roughly 10 % (minimum over trials).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bargaining.distributions import (
    JointUtilityDistribution,
    paper_distribution_u1,
    paper_distribution_u2,
)
from repro.bargaining.mechanism import BoscoService
from repro.experiments.reporting import (
    PaperComparison,
    SectionTable,
    metric_value,
    render_figure_body,
)


@dataclass(frozen=True)
class Fig2Config:
    """Parameters of the Fig. 2 experiment.

    The paper uses 200 trials per cardinality; the default here is lower
    so that the benchmark finishes quickly — pass ``trials=200`` (now
    reachable as ``repro experiments --trials 200``) for the full
    reproduction.
    """

    choice_counts: tuple[int, ...] = (10, 20, 30, 40, 50, 60)
    trials: int = 40
    seed: int = 7


@dataclass(frozen=True)
class Fig2Row:
    """One point of a Fig. 2 series."""

    distribution: str
    num_choices: int
    min_pod: float
    mean_pod: float
    mean_equilibrium_choices: float


@dataclass
class Fig2Result:
    """Full result of the Fig. 2 experiment."""

    rows: list[Fig2Row] = field(default_factory=list)

    def series(self, distribution: str, statistic: str) -> list[tuple[int, float]]:
        """(W, PoD) series for one distribution and one statistic (min / mean)."""
        attribute = {"min": "min_pod", "mean": "mean_pod"}[statistic]
        return [
            (row.num_choices, getattr(row, attribute))
            for row in self.rows
            if row.distribution == distribution
        ]

    def best_pod(self, distribution: str) -> float:
        """Lowest minimum PoD reached for a distribution across all W."""
        values = [row.min_pod for row in self.rows if row.distribution == distribution]
        return min(values) if values else float("nan")

    def comparisons(self) -> list[PaperComparison]:
        """Headline paper-vs-measured comparisons."""
        comparisons = []
        for name in ("U(1)", "U(2)"):
            comparisons.append(
                PaperComparison(
                    metric=f"min PoD at largest W, {name}",
                    paper_value="≈ 0.10",
                    measured_value=f"{self.best_pod(name):.3f}",
                    note="paper: ~10% for both distributions around W=50",
                )
            )
        improving = all(
            self.series(name, "mean")[-1][1] <= self.series(name, "mean")[0][1] + 0.02
            for name in ("U(1)", "U(2)")
            if self.series(name, "mean")
        )
        comparisons.append(
            PaperComparison(
                metric="PoD improves (or saturates) with more choices",
                paper_value="yes",
                measured_value="yes" if improving else "no",
                note="compared on the mean-PoD series, first vs. largest W",
            )
        )
        return comparisons

    def table(self) -> SectionTable:
        """The Fig. 2 series as a structured, render-ready table."""
        rows = tuple(
            (
                row.distribution,
                str(row.num_choices),
                f"{row.min_pod:.3f}",
                f"{row.mean_pod:.3f}",
                f"{row.mean_equilibrium_choices:.1f}",
            )
            for row in self.rows
        )
        return SectionTable(
            headers=("distribution", "W", "min PoD", "mean PoD", "avg equilibrium choices"),
            rows=rows,
        )

    def metrics(self) -> dict[str, float | int | None]:
        """Headline numbers of the experiment, JSON-safe."""
        return {
            "best_pod_u1": metric_value(self.best_pod("U(1)")),
            "best_pod_u2": metric_value(self.best_pod("U(2)")),
            "num_rows": len(self.rows),
        }

    def report(self) -> str:
        """Text report mirroring the Fig. 2 series."""
        return render_figure_body(self.table(), "", ())


def run_fig2(config: Fig2Config | None = None) -> Fig2Result:
    """Run the Fig. 2 experiment.

    One :class:`~repro.bargaining.mechanism.BoscoService` per
    distribution evaluates every cardinality in turn, all ``trials``
    random choice-set trials of a cardinality in one engine batch.
    """
    config = config or Fig2Config()
    distributions: list[tuple[str, JointUtilityDistribution]] = [
        ("U(1)", paper_distribution_u1()),
        ("U(2)", paper_distribution_u2()),
    ]
    result = Fig2Result()
    for name, distribution in distributions:
        service = BoscoService(distribution, seed=config.seed)
        for num_choices in config.choice_counts:
            statistics = service.pod_statistics(num_choices, trials=config.trials)
            result.rows.append(
                Fig2Row(
                    distribution=name,
                    num_choices=num_choices,
                    min_pod=statistics["min"],
                    mean_pod=statistics["mean"],
                    mean_equilibrium_choices=statistics["mean_equilibrium_choices"],
                )
            )
    return result

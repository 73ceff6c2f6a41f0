"""Experiment harness: one module per figure of the paper's evaluation.

Each module exposes a ``run_*`` function producing a structured result
with ``table()``/``series()``/``metrics()`` accessors (the figure's
series as structured data), a ``comparisons()`` method (paper-quoted
numbers next to the reproduced measurements), and a ``report()`` method
that renders the text form through the pure renderers in
:mod:`repro.experiments.reporting`.  Figs. 3 and 4 share one result
type, :class:`~repro.experiments.reporting.PathCountFigure` (length-3
paths per AS, or the destinations they reach), as Figs. 5 and 6 share
:class:`~repro.experiments.reporting.PairMetricFigure`; their modules
hold only the paper comparisons and labels that differ.
:mod:`repro.experiments.runner` runs everything at once from one
ordered table of figures (:data:`~repro.experiments.runner.FIGURES`),
returning :class:`~repro.experiments.reporting.SectionResult` values
(:func:`~repro.experiments.runner.run_sections`) or their combined text
rendering (:func:`~repro.experiments.runner.run_all`); the sweep's
figure shards run the same table.
"""

from repro.experiments.fig2_pod import Fig2Config, Fig2Result, run_fig2
from repro.experiments.fig3_paths import PathDiversityConfig, run_fig3
from repro.experiments.fig4_destinations import run_fig4
from repro.experiments.fig5_geodistance import Fig5Config, run_fig5
from repro.experiments.fig6_bandwidth import Fig6Config, run_fig6
from repro.experiments.reporting import (
    PairMetricFigure,
    PaperComparison,
    PathCountFigure,
    SectionResult,
    SectionSeries,
    SectionTable,
    format_comparisons,
    format_table,
    render_report,
    render_section,
)
from repro.experiments.runner import RunnerConfig, run_all, run_sections

__all__ = [
    "Fig2Config",
    "Fig2Result",
    "run_fig2",
    "PathDiversityConfig",
    "run_fig3",
    "run_fig4",
    "Fig5Config",
    "run_fig5",
    "Fig6Config",
    "run_fig6",
    "PairMetricFigure",
    "PathCountFigure",
    "PaperComparison",
    "SectionResult",
    "SectionTable",
    "SectionSeries",
    "format_table",
    "format_comparisons",
    "render_report",
    "render_section",
    "RunnerConfig",
    "run_all",
    "run_sections",
]

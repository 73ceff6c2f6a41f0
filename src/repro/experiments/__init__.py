"""Experiment harness: one module per figure of the paper's evaluation.

Each module exposes a ``run_*`` function producing a structured result
with ``table()``/``series()``/``metrics()`` accessors (the figure's
series as structured data), a ``comparisons()`` method (paper-quoted
numbers next to the reproduced measurements), and a ``report()`` method
that renders the text form through the pure renderers in
:mod:`repro.experiments.reporting`.  :mod:`repro.experiments.runner`
runs everything at once, returning
:class:`~repro.experiments.reporting.SectionResult` values
(:func:`~repro.experiments.runner.run_sections`) or their combined text
rendering (:func:`~repro.experiments.runner.run_all`).
"""

from repro.experiments.fig2_pod import Fig2Config, Fig2Result, run_fig2
from repro.experiments.fig3_paths import Fig3Result, PathDiversityConfig, run_fig3
from repro.experiments.fig4_destinations import Fig4Result, run_fig4
from repro.experiments.fig5_geodistance import Fig5Config, run_fig5
from repro.experiments.fig6_bandwidth import Fig6Config, run_fig6
from repro.experiments.reporting import (
    PairMetricFigure,
    PaperComparison,
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
    "Fig3Result",
    "run_fig3",
    "Fig4Result",
    "run_fig4",
    "Fig5Config",
    "run_fig5",
    "Fig6Config",
    "run_fig6",
    "PairMetricFigure",
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

"""Reporting: structured section results and their pure text renderers.

Every experiment module produces (a) the raw series that correspond to a
figure of the paper and (b) a small set of *headline comparisons*:
quantities the paper states in the text, next to the value measured in
this reproduction.  Because the path-diversity experiments run on a
synthetic topology (see DESIGN.md), absolute values differ; the
comparisons are about the qualitative shape — who wins, and roughly by
how much.

Since the API redesign, experiment sections return a structured
:class:`SectionResult` (comparisons, table, CDF series, machine-readable
metrics) and *all* text formatting lives here, in pure functions of the
structured data: :func:`render_section` / :func:`render_report` turn
section results into the exact report text the combined runner always
printed, so the JSON envelope and the byte-identical text report are two
views of one value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.envelope import JsonCodec

if TYPE_CHECKING:
    from repro.paths.pair_metrics import PairMetricResult


@dataclass(frozen=True)
class PaperComparison(JsonCodec):
    """One paper-quoted quantity next to the reproduced measurement."""

    metric: str
    paper_value: str
    measured_value: str
    note: str = ""


@dataclass(frozen=True)
class SectionTable(JsonCodec):
    """A rendered-cell table: headers plus rows of pre-formatted cells.

    Cells are strings on purpose — the experiment decides the number
    formatting (``f"{mean:.0f}"`` vs ``f"{fraction:.0%}"``), the
    renderer only decides alignment.  This is what keeps the text
    report byte-identical while the same value round-trips through
    JSON.
    """

    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class SectionSeries(JsonCodec):
    """One named (x, y) series — a CDF of a figure, kept as raw floats."""

    name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]


@dataclass(frozen=True)
class SectionResult(JsonCodec):
    """The structured outcome of one report section of the combined run.

    ``key`` is the stable machine identifier (``stability``, ``fig2`` …
    ``fig6``); ``metrics`` carries the headline numbers of the section
    as JSON-safe scalars (non-finite floats are recorded as ``None``).
    The free-text ``preamble`` exists for prose sections (§II) that have
    no comparison table.
    """

    kind = "section_result"

    key: str
    title: str
    comparisons: tuple[PaperComparison, ...] = ()
    preamble: tuple[str, ...] = ()
    table: SectionTable | None = None
    series_caption: str = ""
    series: tuple[SectionSeries, ...] = ()
    metrics: dict[str, Any] = field(default_factory=dict)


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a simple fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_comparisons(title: str, comparisons: list[PaperComparison]) -> str:
    """Render the paper-vs-measured comparison table of an experiment."""
    rows = [
        [c.metric, c.paper_value, c.measured_value, c.note] for c in comparisons
    ]
    table = format_table(["metric", "paper", "measured", "note"], rows)
    return f"== {title} ==\n{table}"


def format_cdf_series(
    name: str, xs: tuple[float, ...], ys: tuple[float, ...], *, max_points: int = 12
) -> str:
    """Render a down-sampled CDF series as one table row block."""
    if not xs:
        return f"{name}: (empty)"
    count = len(xs)
    if count <= max_points:
        indices = list(range(count))
    else:
        step = (count - 1) / (max_points - 1)
        indices = sorted({int(round(i * step)) for i in range(max_points)})
    points = ", ".join(f"({xs[i]:.3g}, {ys[i]:.2f})" for i in indices)
    return f"{name}: {points}"


def metric_value(value: float) -> float | None:
    """A metrics-dict value: NaN/inf become ``None`` (strict-JSON safe)."""
    number = float(value)
    return number if math.isfinite(number) else None


#: The median relative gain among benefiting pairs, as a figure quantity.
MEDIAN_GAIN = "median gain"

#: A headline number of a pair-metric figure: the fraction of AS pairs
#: gaining ``at_least`` MA paths that beat a GRC ``(condition,
#: at_least)`` value, or :data:`MEDIAN_GAIN`.
Quantity = tuple[str, int] | str


@dataclass
class PairMetricFigure:
    """Full result of a pair-metric figure: Fig. 5 or Fig. 6.

    The figure module supplies its paper comparisons as ``(metric,
    paper value, quantity)`` rows and its metric keys as ``(key,
    quantity)`` rows; table and series labels come from the analysis'
    metric.
    """

    analysis: "PairMetricResult"
    num_agreements: int
    paper: tuple[tuple[str, str, Quantity], ...]
    metric_keys: tuple[tuple[str, Quantity], ...]

    def quantity(self, quantity: Quantity) -> float:
        """The measured value of one quantity (NaN for a median of no gains)."""
        if quantity == MEDIAN_GAIN:
            gains = self.analysis.gain_cdf()
            return gains.median if gains.count > 0 else math.nan
        condition, at_least = quantity
        return self.analysis.fraction_of_pairs_improving(condition, at_least)

    def comparisons(self) -> list[PaperComparison]:
        """Headline paper-vs-measured comparisons."""
        return [
            PaperComparison(metric, paper_value, f"{self.quantity(quantity):.0%}")
            for metric, paper_value, quantity in self.paper
        ]

    def table(self) -> SectionTable:
        """The condition counts (Figs. 5a/6a) as a structured table."""
        rows = []
        for condition in ("max", "median", "min"):
            cdf = self.analysis.count_cdf(condition)
            rows.append(
                (
                    self.analysis.metric.condition_label(condition),
                    f"{cdf.fraction_at_least(1):.0%}",
                    f"{cdf.fraction_at_least(5):.0%}",
                    f"{cdf.fraction_at_least(10):.0%}",
                    f"{cdf.mean:.1f}",
                )
            )
        return SectionTable(
            headers=("condition", "≥1 path", "≥5 paths", "≥10 paths", "mean #paths"),
            rows=tuple(rows),
        )

    def series(self) -> tuple[SectionSeries, ...]:
        """The relative-gain CDF (Figs. 5b/6b) with its raw values."""
        label = self.analysis.metric.gain_label
        return (SectionSeries(label, *self.analysis.gain_cdf().series()),)

    def metrics(self) -> dict[str, float | int | None]:
        """Headline numbers of the figure, JSON-safe."""
        return {
            "num_agreements": self.num_agreements,
            **{
                key: metric_value(self.quantity(quantity))
                for key, quantity in self.metric_keys
            },
        }

    def report(self) -> str:
        """Text report with the condition counts and the relative-gain CDF."""
        return render_figure_body(self.table(), "", self.series())


# ----------------------------------------------------------------------
# Pure renderers: SectionResult -> the exact pre-redesign report text.
# ----------------------------------------------------------------------
def render_figure_body(
    table: SectionTable | None,
    series_caption: str,
    series: tuple[SectionSeries, ...],
) -> str:
    """Render a figure's body (its table and CDF series) as text.

    This is the pure-function form of what the figure results'
    ``report()`` methods produce; they delegate here so one renderer
    defines the byte layout.
    """
    blocks: list[str] = []
    if table is not None:
        blocks.append(format_table(list(table.headers), [list(r) for r in table.rows]))
    if series:
        text = "\n".join(format_cdf_series(s.name, s.xs, s.ys) for s in series)
        if series_caption:
            text = f"{series_caption}\n{text}"
        blocks.append(text)
    return "\n\n".join(blocks)


def render_section(section: SectionResult) -> str:
    """Render one section exactly as the combined report prints it."""
    if section.comparisons:
        head = format_comparisons(section.title, list(section.comparisons))
    else:
        head = "\n".join([f"== {section.title} ==", *section.preamble])
    body = render_figure_body(section.table, section.series_caption, section.series)
    if not body:
        return head
    return f"{head}\n\n{body}"


def render_report(sections: tuple[SectionResult, ...] | list[SectionResult]) -> str:
    """Render the combined experiment report from its structured sections.

    Byte-identical to the text :func:`repro.experiments.runner.run_all`
    has always returned: a leading blank block, sections separated by a
    blank line + separator line, and a trailing newline.
    """
    return "\n\n" + "\n\n\n".join(render_section(s) for s in sections) + "\n"

"""Run every experiment of the paper's evaluation and print a combined report.

``python -m repro.experiments.runner`` regenerates the data behind all
figures (with reduced default sizes; pass ``--full`` for paper-scale
trial counts) and prints paper-vs-measured comparison tables, the same
content that EXPERIMENTS.md records.  The entry point is a thin alias
of ``repro experiments`` — both route through the one CLI adapter in
:mod:`repro.api.adapter`.

Sections return structured :class:`~repro.experiments.reporting.SectionResult`
values (comparisons, tables, CDF series, headline metrics); the text
report is a pure rendering of them (:func:`run_all` keeps returning the
combined text for backward compatibility, :func:`run_sections` is the
structured form the API session consumes).

A sequential run shares one :class:`DiversityContext` (topology,
compiled path engine, MA enumeration and path index) across Figs. 3–6
instead of rebuilding it per figure.  ``--jobs N`` opts into
process-parallel figure execution: each section runs in a worker
process, every worker builds its own context (sections that land on the
same worker share one build through the per-process memo of
:func:`~repro.experiments.context.context_for`), and the results are
merged in the fixed section order, so seeded output is byte-identical
to a sequential run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from repro.experiments.fig2_pod import Fig2Config, run_fig2
from repro.experiments.fig3_paths import PathDiversityConfig, run_fig3
from repro.experiments.fig4_destinations import run_fig4
from repro.experiments.fig5_geodistance import Fig5Config, run_fig5
from repro.experiments.fig6_bandwidth import Fig6Config, run_fig6
from repro.experiments.reporting import SectionResult, render_report
from repro.routing.convergence import analyze_gadget
from repro.topology.fixtures import bad_gadget_topology, disagree_topology


@dataclass(frozen=True)
class RunnerConfig:
    """Sizes of the combined experiment run.

    ``seed`` overrides the per-experiment default seeds so a full run is
    reproducible end-to-end from a single number (``repro experiments
    --seed N``); ``None`` keeps each experiment's own default.
    ``trials`` overrides the Fig. 2 trial count (``repro experiments
    --trials 200`` reaches the paper scale without touching ``--full``,
    which also enlarges every topology-based figure).
    """

    full: bool = False
    seed: int | None = None
    trials: int | None = None

    def fig2(self) -> Fig2Config:
        """Fig. 2 configuration (200 trials at full scale, as in the paper)."""
        if self.full:
            config = Fig2Config(trials=200)
        else:
            config = Fig2Config(choice_counts=(10, 20, 30, 40, 50), trials=25)
        if self.seed is not None:
            config = replace(config, seed=self.seed)
        if self.trials is not None:
            config = replace(config, trials=self.trials)
        return config

    def diversity(self) -> PathDiversityConfig:
        """Shared Fig. 3/4 configuration."""
        if self.full:
            config = PathDiversityConfig(sample_size=500)
        else:
            config = PathDiversityConfig(
                num_tier2=40, num_tier3=120, num_stubs=400, sample_size=150
            )
        if self.seed is not None:
            config = replace(config, seed=self.seed)
        return config

    def fig5(self) -> Fig5Config:
        """Fig. 5 configuration."""
        base = self.diversity()
        config = Fig5Config(diversity=base, pair_sample_size=80 if self.full else 40)
        if self.seed is not None:
            config = replace(config, geography_seed=self.seed)
        return config

    def fig6(self) -> Fig6Config:
        """Fig. 6 configuration."""
        base = self.diversity()
        return Fig6Config(diversity=base, pair_sample_size=80 if self.full else 40)


# ----------------------------------------------------------------------
# Sections.  Each is a module-level function of (config, context)
# returning a SectionResult, so the parallel path can pickle and
# dispatch them; the tuple fixes the merge order, which is what keeps
# seeded output byte-identical under --jobs.
# ----------------------------------------------------------------------
def _section_stability(config: RunnerConfig, context=None) -> SectionResult:
    """§II stability comparison: DISAGREE and BAD GADGET under BGP."""
    disagree = analyze_gadget(disagree_topology())
    bad = analyze_gadget(bad_gadget_topology())
    return SectionResult(
        key="stability",
        title="§II — BGP stability gadgets",
        preamble=(
            (
                f"DISAGREE: converged under every schedule = {disagree.always_converged}, "
                f"distinct stable states = {disagree.distinct_stable_states} "
                "(paper: converges, but non-deterministically)"
            ),
            (
                f"BAD GADGET: oscillation detected = {bad.any_oscillation}, "
                f"converged = {bad.always_converged} "
                "(paper: persistent route oscillations)"
            ),
            "PAN forwarding along source-selected paths is loop-free by construction "
            "(see repro.routing.forwarding and its tests).",
        ),
        metrics={
            "disagree_always_converged": bool(disagree.always_converged),
            "disagree_distinct_stable_states": int(disagree.distinct_stable_states),
            "bad_gadget_any_oscillation": bool(bad.any_oscillation),
            "bad_gadget_always_converged": bool(bad.always_converged),
        },
    )


def _section_fig2(config: RunnerConfig, context=None) -> SectionResult:
    fig2 = run_fig2(config.fig2())
    return SectionResult(
        key="fig2",
        title="Fig. 2 — Price of Dishonesty",
        comparisons=tuple(fig2.comparisons()),
        table=fig2.table(),
        metrics=fig2.metrics(),
    )


def _figure_section(key: str, title: str, figure, series_caption: str = "") -> SectionResult:
    """The section of a path-diversity figure result (Figs. 3–6)."""
    return SectionResult(
        key=key,
        title=title,
        comparisons=tuple(figure.comparisons()),
        table=figure.table(),
        series_caption=series_caption,
        series=figure.series(),
        metrics=figure.metrics(),
    )


def _section_fig3(config: RunnerConfig, context=None) -> SectionResult:
    fig3 = run_fig3(config.diversity(), context=context)
    return _figure_section(
        "fig3", "Fig. 3 — length-3 paths per AS", fig3, fig3.SERIES_CAPTION
    )


def _section_fig4(config: RunnerConfig, context=None) -> SectionResult:
    fig4 = run_fig4(config.diversity(), context=context)
    return _figure_section(
        "fig4", "Fig. 4 — nearby destinations per AS", fig4, fig4.SERIES_CAPTION
    )


def _section_fig5(config: RunnerConfig, context=None) -> SectionResult:
    fig5 = run_fig5(config.fig5(), context=context)
    return _figure_section("fig5", "Fig. 5 — geodistance of MA paths", fig5)


def _section_fig6(config: RunnerConfig, context=None) -> SectionResult:
    fig6 = run_fig6(config.fig6(), context=context)
    return _figure_section("fig6", "Fig. 6 — bandwidth of MA paths", fig6)


#: The report sections in output order.
_SECTIONS = (
    _section_stability,
    _section_fig2,
    _section_fig3,
    _section_fig4,
    _section_fig5,
    _section_fig6,
)

#: Sections that consume the shared diversity context.
_CONTEXT_SECTIONS = frozenset({_section_fig3, _section_fig4, _section_fig5, _section_fig6})


def _run_section(index: int, config: RunnerConfig) -> SectionResult:
    """Worker entry point for process-parallel execution."""
    section = _SECTIONS[index]
    if section not in _CONTEXT_SECTIONS:
        return section(config)
    from repro.experiments.context import context_for

    return section(config, context_for(config.diversity(), None))


def run_sections(
    config: RunnerConfig | None = None,
    *,
    jobs: int = 1,
    context=None,
) -> tuple[SectionResult, ...]:
    """Run every experiment and return the structured section results.

    ``jobs`` > 1 runs the sections in that many worker processes; the
    merge order is the fixed section order regardless of completion
    order, and every section is deterministic given its config, so the
    rendered report is byte-identical to a sequential run.  Each worker
    builds its own diversity context.  ``context`` lets a caller that
    already holds a matching
    :class:`~repro.experiments.context.DiversityContext` (the API
    session) share it with the sequential path; mismatched or absent
    contexts fall back to a fresh build.
    """
    config = config or RunnerConfig()
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")

    if jobs == 1:
        from repro.experiments.context import context_for

        ctx = context_for(config.diversity(), context)
        return tuple(
            section(config, ctx) if section in _CONTEXT_SECTIONS else section(config)
            for section in _SECTIONS
        )

    with ProcessPoolExecutor(max_workers=min(jobs, len(_SECTIONS))) as executor:
        futures = [
            executor.submit(_run_section, index, config)
            for index in range(len(_SECTIONS))
        ]
        return tuple(future.result() for future in futures)


def run_all(config: RunnerConfig | None = None, *, jobs: int = 1) -> str:
    """Run every experiment and return the combined text report.

    The text is a pure rendering of :func:`run_sections` — byte-identical
    to the pre-redesign report (golden tests pin this).
    """
    return render_report(run_sections(config, jobs=jobs))


def main(argv=None) -> None:
    """Command-line entry point: an alias of ``repro experiments``.

    The argparse surface and validation live in one place —
    :mod:`repro.api.adapter` — shared with the ``repro`` CLI.
    """
    import sys

    from repro.api.adapter import run_experiments_command

    sys.exit(run_experiments_command(argv))


if __name__ == "__main__":
    main()

"""Shared per-run context for the path-diversity experiments (Figs. 3–6).

Figs. 3, 4, 5, and 6 all start from the same expensive artifacts: the
synthetic topology of a :class:`PathDiversityConfig`, its compiled
:class:`~repro.core.CompiledTopology`, the batched
:class:`~repro.core.PathEngine`, the enumerated mutuality-based
agreements, and the MA path index.  Before the compiled core existed,
every figure rebuilt all of them from scratch; a combined run paid four
times for identical work.  :class:`DiversityContext` builds them once
and is threaded through ``run_fig3``/``run_fig4``/``run_fig5``/
``run_fig6`` by the combined runner (each ``run_figN`` still builds its
own context when called standalone, so the public entry points keep
their one-argument signatures).  Figs. 3 and 4 read the same diversity
analysis, which the context computes once; Figs. 5 and 6 run the same
pair-metric analysis (:mod:`repro.paths.pair_metrics`) on this context;
only their per-path metric — geodistance or bandwidth — differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.agreements.agreement import Agreement
from repro.agreements.mutuality import enumerate_mutuality_agreements
from repro.core import CompiledTopology, PathEngine, compile_topology, path_engine_for
from repro.paths.diversity import DiversityResult
from repro.paths.ma_paths import MAPathIndex, build_ma_path_index
from repro.topology.generator import GeneratedTopology, generate_topology

if TYPE_CHECKING:  # avoids a runtime cycle with fig3_paths
    from repro.experiments.fig3_paths import PathDiversityConfig


@dataclass
class DiversityContext:
    """Everything Figs. 3–6 share for one diversity configuration."""

    config: "PathDiversityConfig"
    topology: GeneratedTopology
    compiled: CompiledTopology
    engine: PathEngine
    agreements: list[Agreement] = field(default_factory=list)
    index: MAPathIndex = field(default_factory=MAPathIndex)
    #: The Figs. 3/4 analysis, filled by its first use
    #: (:func:`repro.experiments.fig3_paths.shared_diversity`).
    diversity: DiversityResult | None = None

    @classmethod
    def build(cls, config: "PathDiversityConfig") -> "DiversityContext":
        """Generate the topology and derive every shared artifact once."""
        topology = generate_topology(
            num_tier1=config.num_tier1,
            num_tier2=config.num_tier2,
            num_tier3=config.num_tier3,
            num_stubs=config.num_stubs,
            seed=config.seed,
        )
        graph = topology.graph
        compiled = compile_topology(graph)
        engine = path_engine_for(graph)
        agreements = list(enumerate_mutuality_agreements(graph))
        index = build_ma_path_index(agreements)
        return cls(
            config=config,
            topology=topology,
            compiled=compiled,
            engine=engine,
            agreements=agreements,
            index=index,
        )

    def matches(self, config: "PathDiversityConfig") -> bool:
        """Whether this context was built for the given configuration."""
        return self.config == config


#: Single-slot per-process context memo.  Under ``--jobs N`` the figure
#: sections run as independent tasks; when two sections land on the same
#: worker process this lets the second reuse the first's context instead
#: of rebuilding topology + MA enumeration from scratch.  One slot is
#: enough (a run uses one diversity config) and bounds memory.
_LAST_BUILT: list[DiversityContext] = []


def context_for(
    config: "PathDiversityConfig", context: DiversityContext | None
) -> DiversityContext:
    """Reuse ``context`` when it matches ``config``, else build afresh.

    The mismatch path exists so a caller can never silently run a figure
    against the wrong topology: passing a stale context falls back to a
    correct (if slower) fresh build instead of producing wrong numbers.
    Fresh builds are memoized per process (one slot), so repeated calls
    for the same configuration — the parallel runner's workers — build
    once.
    """
    if context is not None and context.matches(config):
        return context
    memo = _LAST_BUILT[0] if _LAST_BUILT else None
    if (
        memo is not None
        and memo.matches(config)
        and compile_topology(memo.topology.graph) is memo.compiled
    ):
        return memo
    built = DiversityContext.build(config)
    _LAST_BUILT[:] = [built]
    return built

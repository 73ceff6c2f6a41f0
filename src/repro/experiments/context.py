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
their one-argument signatures).  Figs. 5 and 6 run the same
pair-metric analysis (:mod:`repro.paths.pair_metrics`) on this context;
only their per-path metric — geodistance or bandwidth — differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.agreements.agreement import Agreement
from repro.agreements.mutuality import enumerate_mutuality_agreements
from repro.core import CompiledTopology, PathEngine, compile_topology, path_engine_for
from repro.core.artifacts import ArtifactStore
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

    @classmethod
    def build(
        cls,
        config: "PathDiversityConfig",
        *,
        store: ArtifactStore | None = None,
    ) -> "DiversityContext":
        """Generate the topology and derive every shared artifact once.

        With a ``store``, the compiled topology comes from the
        memory-mapped artifact store instead of an in-process compile:
        the first builder publishes the artifact, every later process —
        parallel runner workers, sweep shards — opens it zero-copy and
        shares the physical pages.  The engine's results are identical
        either way (the compiled arrays are element-equal by the
        artifact contract), so store-backed and in-process contexts are
        interchangeable.
        """
        topology = generate_topology(
            num_tier1=config.num_tier1,
            num_tier2=config.num_tier2,
            num_tier3=config.num_tier3,
            num_stubs=config.num_stubs,
            seed=config.seed,
        )
        graph = topology.graph
        if store is not None:
            compiled, _ = store.ensure(graph)
            engine = PathEngine(compiled)
        else:
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


def _memo_still_valid(built: DiversityContext) -> bool:
    # Detached (artifact-backed) compiled views have no mutable source;
    # the memoized context's graph is private to it, so the view stays
    # valid for as long as the memo matches the config.
    if built.compiled.detached:
        return True
    return not built.compiled.is_stale(built.topology.graph)


def context_for(
    config: "PathDiversityConfig",
    context: DiversityContext | None,
    *,
    store: ArtifactStore | None = None,
) -> DiversityContext:
    """Reuse ``context`` when it matches ``config``, else build afresh.

    The mismatch path exists so a caller can never silently run a figure
    against the wrong topology: passing a stale context falls back to a
    correct (if slower) fresh build instead of producing wrong numbers.
    Fresh builds are memoized per process (one slot), so repeated calls
    for the same configuration — the parallel runner's workers — build
    once.  ``store`` is forwarded to fresh builds only; a matching
    existing context is reused regardless of how its topology was
    compiled (both kinds answer identically).
    """
    if context is not None and context.matches(config):
        return context
    if (
        _LAST_BUILT
        and _LAST_BUILT[0].matches(config)
        and _memo_still_valid(_LAST_BUILT[0])
    ):
        return _LAST_BUILT[0]
    built = DiversityContext.build(config, store=store)
    _LAST_BUILT[:] = [built]
    return built

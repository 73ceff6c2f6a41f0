"""The session façade: one object owning the expensive shared state.

A :class:`Session` is the unit of reuse of the public API.  Construction
is free; state accumulates as workflows run and is keyed by the exact
parameters that produced it, so a repeated call with the same request
reuses instead of rebuilding:

- **Topologies** — synthetic topologies keyed by their generator
  parameters ``(tier1, tier2, tier3, stubs, seed)``; loaded ``as-rel``
  files keyed by path + file stamp (size, mtime), so an edited file is
  re-read, not served stale.
- **Diversity artifacts** — per-topology mutuality-agreement
  enumerations and MA path indexes (the dominant cost of the §VI
  analysis), plus the per-graph compiled
  :class:`~repro.core.PathEngine` that :func:`repro.core.path_engine_for`
  already shares.
- **Experiment contexts** — one
  :class:`~repro.experiments.context.DiversityContext` per
  :class:`~repro.experiments.fig3_paths.PathDiversityConfig`, shared
  across ``experiments()`` calls (sequential runs only: worker
  processes rebuild their own, exactly as ``repro experiments --jobs``
  always has).
- **Truthful Nash products** — ``E[N | σ⊤]`` per named negotiation
  distribution, computed once and handed to every cohort solve.

Sessions are serialized, not parallel: every workflow runs under one
reentrant lock, so a session shared across threads (the ``repro
serve`` executor and its event loop, say) is safe by mutual exclusion —
concurrent callers queue rather than corrupt the caches.  All results
are plain values — a session can be dropped at any time without losing
anything but its caches.

Warm-state growth is reportable and boundable: every cache is a
:class:`~repro.core.caching.BoundedCache` (``cache_limit`` bounds each
one; ``None`` keeps them unbounded), :meth:`Session.cache_stats`
reports size/hit/miss/eviction counters per cache, and a session is a
context manager — :meth:`Session.close` (or leaving the ``with`` block)
drops every cache and marks the session closed, after which workflows
raise :class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.agreements.agreement import Agreement
from repro.agreements.mutuality import enumerate_mutuality_agreements
from repro.api.requests import (
    DiversityRequest,
    ExperimentsRequest,
    GrcAllRequest,
    NegotiateRequest,
    SimulateRequest,
    SweepRequest,
    TopologyRequest,
)
from repro.api.results import (
    DiversityResult,
    DiversityScenarioRow,
    ExperimentsResult,
    GrcAllResult,
    NegotiateResult,
    SimulateResult,
    SweepListResult,
    SweepResult,
    TopologyResult,
)
from repro.bargaining.efficiency import expected_truthful_nash_product
from repro.bargaining.mechanism import (
    SolvedCohort,
    draw_trial_pairs,
    solve_trial_cohorts,
    summarize_cohort,
)
from repro.core import PathEngine, compile_as_rel_file, compile_topology, path_engine_for
from repro.core.artifacts import ArtifactStore
from repro.core.caching import BoundedCache
from repro.errors import OutputError, ServiceError, ValidationError
from repro.experiments.context import DiversityContext
from repro.experiments.runner import RunnerConfig, run_sections
from repro.paths.diversity import analyze_path_diversity
from repro.paths.ma_paths import MAPathIndex, build_ma_path_index
from repro.simulation.scenarios import run_scenario
from repro.sweep import (
    DEFAULT_CACHE_DIR,
    DEFAULT_OUT_DIR,
    SweepSpec,
    run_sweep,
    smoke_spec,
)
from repro.paths.grc_all import run_grc_all
from repro.topology.caida import CaidaFormatError, load_as_rel, save_as_rel
from repro.topology.generator import GeneratedTopology, generate_topology
from repro.topology.gml import GmlFormatError, load_gml, save_gml
from repro.topology.graph import ASGraph

#: The conclusion degrees the diversity report lists, in report order.
_DIVERSITY_REPORT_SCENARIOS = ("GRC", "MA* (Top 1)", "MA* (Top 5)", "MA*", "MA")


@dataclass
class _DiversityArtifacts:
    """Everything expensive the diversity analysis derives per topology."""

    graph: ASGraph
    engine: PathEngine
    agreements: list[Agreement]
    index: MAPathIndex


@contextlib.contextmanager
def _reading_topology(path: str):
    """Map a topology file's read and parse failures to ValidationError."""
    try:
        yield
    except OSError as error:
        raise ValidationError(
            f"cannot read topology {path}: {error.strerror or error}"
        ) from error
    except (CaidaFormatError, GmlFormatError, UnicodeDecodeError) as error:
        kind = "GML topology" if path.endswith(".gml") else "topology"
        raise ValidationError(f"cannot parse {kind} {path}: {error}") from error


class Session:
    """Reusable execution context for every public workflow.

    ``cache_limit`` bounds each internal cache to that many entries
    (LRU eviction); ``None`` keeps them unbounded — the historical
    behavior, right for scripts, while long-lived servers pass a bound
    so warm state cannot grow without limit.
    """

    def __init__(self, *, cache_limit: int | None = None) -> None:
        self._generated: BoundedCache = BoundedCache(cache_limit)
        self._loaded: BoundedCache = BoundedCache(cache_limit)
        self._artifacts: BoundedCache = BoundedCache(cache_limit)
        self._contexts: BoundedCache = BoundedCache(cache_limit)
        self._truthful: BoundedCache = BoundedCache(cache_limit)
        #: Serializes every workflow: concurrent callers queue here.
        self._lock = threading.RLock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (workflows now raise)."""
        return self._closed

    def close(self) -> None:
        """Drop every cache and refuse further workflows.

        Idempotent.  Results already returned stay valid — they are
        plain values — but subsequent workflow calls raise
        :class:`~repro.errors.ServiceError`.
        """
        with self._lock:
            self._closed = True
            for cache in self._caches().values():
                cache.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @contextlib.contextmanager
    def _entered(self):
        """The per-workflow guard: one caller at a time, never closed."""
        with self._lock:
            if self._closed:
                raise ServiceError("session is closed")
            yield

    def _caches(self) -> dict[str, BoundedCache]:
        return {
            "generated_topologies": self._generated,
            "loaded_topologies": self._loaded,
            "diversity_artifacts": self._artifacts,
            "experiment_contexts": self._contexts,
            "truthful_nash_products": self._truthful,
        }

    def cache_stats(self) -> dict[str, dict[str, int | None]]:
        """Size/bound/hit/miss/eviction counters, one entry per cache.

        This is what ``repro serve`` surfaces under ``session`` on its
        ``/stats`` endpoint to report (and prove bounded) warm-state
        growth.
        """
        with self._lock:
            return {name: cache.stats() for name, cache in self._caches().items()}

    # ------------------------------------------------------------------
    # Shared-state accessors
    # ------------------------------------------------------------------
    def _generated_topology(
        self, key: tuple[int, int, int, int, int]
    ) -> GeneratedTopology:
        """Generate (or reuse) the synthetic topology for a parameter key."""
        topology = self._generated.get(key)
        if topology is None:
            tier1, tier2, tier3, stubs, seed = key
            topology = generate_topology(
                num_tier1=tier1,
                num_tier2=tier2,
                num_tier3=tier3,
                num_stubs=stubs,
                seed=seed,
            )
            self._generated.put(key, topology)
        return topology

    def _loaded_topology(self, path: str) -> ASGraph:
        """Load (or reuse) a topology file, keyed by path + file stamp.

        The serialization is chosen by suffix: ``.gml`` files parse as
        GML (:mod:`repro.topology.gml`), everything else as CAIDA
        ``as-rel``.
        """
        with _reading_topology(path):
            stat = os.stat(path)
            key = (os.path.abspath(path), stat.st_size, stat.st_mtime_ns)
            graph = self._loaded.get(key)
            if graph is None:
                graph = load_gml(path) if path.endswith(".gml") else load_as_rel(path)
                self._loaded.put(key, graph)
        return graph

    def _diversity_artifacts(
        self, cache_key: object, graph: ASGraph
    ) -> _DiversityArtifacts:
        """Derive (or reuse) the agreements + MA index + engine of a graph."""
        artifacts = self._artifacts.get(cache_key)
        if artifacts is None or artifacts.graph is not graph:
            agreements = list(enumerate_mutuality_agreements(graph))
            artifacts = _DiversityArtifacts(
                graph=graph,
                engine=path_engine_for(graph),
                agreements=agreements,
                index=build_ma_path_index(agreements),
            )
            self._artifacts.put(cache_key, artifacts)
        return artifacts

    def _truthful_value(self, distribution_name: str, distribution) -> float:
        """The memoized truthful expected Nash product of a distribution."""
        value = self._truthful.get(distribution_name)
        if value is None:
            value = expected_truthful_nash_product(distribution)
            self._truthful.put(distribution_name, value)
        return value

    def context_for(self, config) -> DiversityContext:
        """The session's shared experiment context for a diversity config.

        The context lives only in this session's cache: it is built
        here on a miss, never taken from or left in the per-process
        memo of :func:`repro.experiments.context.context_for`, so
        ``cache_limit`` and :meth:`close` bound its lifetime.
        """
        context = self._contexts.get(config)
        if context is None:
            context = DiversityContext.build(config)
            self._contexts.put(config, context)
        return context

    # ------------------------------------------------------------------
    # Workflows
    # ------------------------------------------------------------------
    def topology(self, request: TopologyRequest | None = None) -> TopologyResult:
        """Generate a synthetic topology; optionally write it to a file.

        ``request.file_format`` selects the serialization of the
        written file: CAIDA ``as-rel`` (default) or ``gml``.
        """
        request = request or TopologyRequest()
        with self._entered():
            topology = self._generated_topology(request.cache_key())
        graph = topology.graph
        # The write happens outside the lock: it touches no shared state
        # and a slow disk should not stall concurrent workflows.
        if request.output is not None:
            writer = save_gml if request.file_format == "gml" else save_as_rel
            try:
                writer(graph, request.output)
            except OSError as error:
                raise OutputError(
                    f"cannot write topology to {request.output}: "
                    f"{error.strerror or error}"
                ) from error
        return TopologyResult(
            tier1=request.tier1,
            tier2=request.tier2,
            tier3=request.tier3,
            stubs=request.stubs,
            seed=request.seed,
            num_ases=len(graph),
            num_transit_links=graph.num_transit_links(),
            num_peering_links=graph.num_peering_links(),
            graph_description=str(graph),
            output=request.output,
            file_format=request.file_format,
        )

    def diversity(self, request: DiversityRequest | None = None) -> DiversityResult:
        """Run the §VI path-diversity analysis on a loaded or generated graph."""
        request = request or DiversityRequest()
        with self._entered():
            if request.topology is not None:
                graph = self._loaded_topology(request.topology)
                source = "loaded"
                cache_key: object = ("file", os.path.abspath(request.topology))
            else:
                graph = self._generated_topology(request.generation_key()).graph
                source = "generated"
                cache_key = ("generated", request.generation_key())
            artifacts = self._diversity_artifacts(cache_key, graph)
            # The analysis stays inside the guard: it grows the shared
            # engine's per-source memos.
            analysis = analyze_path_diversity(
                graph,
                sample_size=request.sample_size,
                seed=request.seed,
                engine=artifacts.engine,
                index=artifacts.index,
            )
        rows = []
        for scenario in _DIVERSITY_REPORT_SCENARIOS:
            rows.append(
                DiversityScenarioRow(
                    scenario=scenario,
                    mean_paths=analysis.path_cdf(scenario).mean,
                    mean_destinations=analysis.destination_cdf(scenario).mean,
                )
            )
        extra = analysis.additional_path_summary()
        return DiversityResult(
            source=source,
            topology_path=request.topology,
            graph_description=str(graph),
            num_agreements=len(artifacts.agreements),
            sample_size=request.sample_size,
            seed=request.seed,
            rows=tuple(rows),
            additional_paths_mean=extra["mean"],
            additional_paths_max=extra["max"],
        )

    def experiments(
        self, request: ExperimentsRequest | None = None
    ) -> ExperimentsResult:
        """Run the combined Fig. 2–6 harness with structured sections."""
        request = request or ExperimentsRequest()
        config = RunnerConfig(
            full=request.full, seed=request.seed, trials=request.trials
        )
        with self._entered():
            context = None
            if request.jobs == 1:
                context = self.context_for(config.diversity())
            sections = run_sections(config, jobs=request.jobs, context=context)
        return ExperimentsResult(
            full=request.full,
            seed=request.seed,
            trials=request.trials,
            jobs=request.jobs,
            sections=sections,
        )

    def grc_all(self, request: GrcAllRequest | None = None) -> GrcAllResult:
        """Run the all-sources GRC pass, optionally sharded across processes.

        ``as-rel`` inputs take the streaming compile path — lines to
        compiled arrays, never materializing the dict-of-sets graph —
        which is what keeps a full CAIDA snapshot ingestible.  ``.gml``
        inputs and generated topologies compile from their graph.  With
        ``jobs > 1`` the compiled view is published into the
        memory-mapped artifact store and the source ranges run in
        worker processes; results are byte-identical to ``jobs == 1``.
        """
        request = request or GrcAllRequest()
        with self._entered():
            if request.topology is not None:
                source = "loaded"
                if request.topology.endswith(".gml"):
                    compiled = compile_topology(self._loaded_topology(request.topology))
                else:
                    with _reading_topology(request.topology):
                        compiled = compile_as_rel_file(request.topology)
            else:
                source = "generated"
                compiled = compile_topology(
                    self._generated_topology(request.generation_key()).graph
                )
            if request.jobs > 1 and compiled.n > 0:
                artifact_path = ArtifactStore(request.artifact_dir).save(compiled)
                grc_pass = run_grc_all(
                    compiled,
                    jobs=request.jobs,
                    shards=request.shards,
                    artifact_path=artifact_path,
                )
            else:
                grc_pass = run_grc_all(compiled)
        # The CSV write happens outside the lock, like topology output.
        if request.output is not None:
            try:
                grc_pass.write_csv(request.output)
            except OSError as error:
                raise OutputError(
                    f"cannot write per-source table to {request.output}: "
                    f"{error.strerror or error}"
                ) from error
        summary = grc_pass.summary()
        return GrcAllResult(
            source=source,
            topology_path=request.topology,
            fingerprint=grc_pass.fingerprint,
            jobs=request.jobs,
            shards=grc_pass.shards,
            num_ases=int(summary["num_ases"]),
            total_paths=int(summary["total_paths"]),
            mean_paths=float(summary["mean_paths"]),
            max_paths=int(summary["max_paths"]),
            mean_destinations=float(summary["mean_destinations"]),
            max_destinations=int(summary["max_destinations"]),
            output=request.output,
        )

    def simulate(self, request: SimulateRequest | None = None) -> SimulateResult:
        """Run a canned discrete-event scenario.

        ``trace_out`` is written after the run completes; a failed write
        raises :class:`~repro.errors.OutputError` (the run's results are
        lost only to callers that don't catch it — the CLI adapter
        prints the summary before attempting the write, preserving the
        historical output ordering).
        """
        request = request or SimulateRequest()
        overrides: dict[str, object] = {}
        if request.population:
            overrides["population"] = request.population
        with self._entered():
            scenario_result = run_scenario(
                request.scenario,
                seed=request.seed,
                duration=request.duration,
                **overrides,
            )
        result = SimulateResult.from_scenario(
            scenario_result, trace_out=request.trace_out
        )
        if request.trace_out:
            result.write_trace(request.trace_out)
        return result

    def sweep(
        self,
        request: SweepRequest,
        *,
        progress: Callable[[str, int, int], None] | None = None,
    ) -> SweepResult | SweepListResult:
        """Run (or ``--list`` expand) a sharded, resumable sweep.

        ``progress`` gets each step's message with the completed and
        total shard counts (:func:`~repro.sweep.executor.run_sweep`).
        """
        spec = smoke_spec() if request.smoke else SweepSpec.from_json_file(request.spec)
        if request.list_shards:
            shards = spec.expand()
            return SweepListResult(
                name=spec.name, shard_ids=tuple(s.shard_id for s in shards)
            )
        with self._entered():
            outcome = run_sweep(
                spec,
                jobs=request.jobs,
                cache_dir=request.cache_dir or DEFAULT_CACHE_DIR,
                out_dir=request.out or DEFAULT_OUT_DIR,
                force=request.force,
                progress=progress,
            )
        return SweepResult(
            name=spec.name,
            executed=outcome.executed,
            reused=outcome.reused,
            summary_path=str(outcome.written["summary"]),
            num_tables=len(outcome.written) - 1,
            summary=outcome.summary,
        )

    def negotiate(self, request: NegotiateRequest | None = None) -> NegotiateResult:
        """Run one batched BOSCO negotiation pass (Fig. 2-style PoD trials)."""
        return self.negotiate_many([request or NegotiateRequest()])[0]

    def negotiate_many(
        self, requests: Sequence[NegotiateRequest]
    ) -> list[NegotiateResult]:
        """Solve several negotiation requests in **one** engine batch.

        All requests must share a coalesce key (same named distribution,
        same choice-set cardinality); each request's trials are drawn
        from its own seeded RNG, all cohorts are packed into a single
        :func:`~repro.bargaining.mechanism.solve_trial_cohorts` call,
        and each result is **bit-identical** to a solo
        :meth:`negotiate` for that request — the engine's methods are
        row-independent.  This is the cross-client coalescing entry
        point ``repro serve`` batches concurrent negotiation requests
        through.
        """
        if not requests:
            return []
        keys = {request.coalesce_key() for request in requests}
        if len(keys) != 1:
            raise ValidationError(
                "negotiate_many requires one coalesce group (same distribution "
                f"and num_choices), got {sorted(keys)}"
            )
        with self._entered():
            distribution = requests[0].joint_distribution()
            truthful = self._truthful_value(requests[0].distribution, distribution)
            cohorts = [
                draw_trial_pairs(
                    distribution,
                    request.num_choices,
                    request.trials,
                    seed=request.seed,
                )
                for request in requests
            ]
            solved = solve_trial_cohorts(distribution, cohorts, truthful_value=truthful)
        return [
            _negotiate_result(request, cohort, truthful)
            for request, cohort in zip(requests, solved)
        ]


def _negotiate_result(
    request: NegotiateRequest, cohort: SolvedCohort, truthful_value: float
) -> NegotiateResult:
    """The result of one solved cohort, from :func:`summarize_cohort`."""
    summary = summarize_cohort(cohort)
    if summary.best is None:
        raise ServiceError(
            f"no negotiation trial converged (distribution {request.distribution}, "
            f"W={request.num_choices}, {request.trials} trials, seed {request.seed})"
        )
    statistics = summary.statistics()
    return NegotiateResult(
        distribution=request.distribution,
        num_choices=request.num_choices,
        trials=request.trials,
        seed=request.seed,
        converged_trials=len(summary.pods),
        skipped_trials=summary.skipped,
        min_pod=statistics["min"],
        mean_pod=statistics["mean"],
        max_pod=statistics["max"],
        mean_equilibrium_choices=statistics["mean_equilibrium_choices"],
        best_expected_nash_product=float(cohort.nash_products[summary.best]),
        truthful_nash_product=float(truthful_value),
    )

"""Typed results of the public API, each with a JSON envelope.

Every :class:`~repro.api.session.Session` workflow returns one of these
dataclasses.  They carry *structured* data — numbers as numbers, tables
as headers+rows, CDF series as raw floats — and serialize to the
schema-versioned envelopes of :mod:`repro.envelope` via the shared
:class:`~repro.envelope.JsonCodec` ``to_json_dict()``/``from_json_dict()``.

The CLI's historical text output is a *pure rendering* of the same
values: the ``render_*_text`` functions below reproduce it byte-for-byte
(golden tests pin this), so ``--format text`` and ``--format json`` are
two views of one result object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.envelope import IN_PROCESS, OMIT_IF_NONE, Envelope, JsonCodec
from repro.errors import EnvelopeError, OutputError
from repro.experiments.reporting import SectionResult, render_report
from repro.simulation.scenarios import ScenarioResult

__all__ = [
    "TopologyResult",
    "DiversityScenarioRow",
    "DiversityResult",
    "ExperimentsResult",
    "GrcAllResult",
    "SimulateResult",
    "PopulationResult",
    "AgentsListResult",
    "ScenarioListResult",
    "NegotiateResult",
    "SweepResult",
    "SweepListResult",
    "JobStatusResult",
    "JOB_STATES",
    "render_topology_text",
    "render_job_status_text",
    "render_diversity_text",
    "render_experiments_text",
    "render_grc_all_text",
    "render_simulate_text",
    "render_agents_list_text",
    "render_scenario_list_text",
    "render_negotiate_text",
    "render_sweep_text",
    "render_sweep_list_text",
]


@dataclass(frozen=True)
class TopologyResult(JsonCodec):
    """Outcome of a topology generation (``Session.topology``)."""

    kind = "topology_result"

    tier1: int
    tier2: int
    tier3: int
    stubs: int
    seed: int
    num_ases: int
    num_transit_links: int
    num_peering_links: int
    graph_description: str
    output: str | None = None
    file_format: str = "as-rel"


@dataclass(frozen=True)
class DiversityScenarioRow(JsonCodec):
    """Per-conclusion-degree headline numbers of the diversity analysis."""

    scenario: str
    mean_paths: float
    mean_destinations: float


@dataclass(frozen=True)
class DiversityResult(JsonCodec):
    """Outcome of the §VI diversity analysis (``Session.diversity``)."""

    kind = "diversity_result"

    source: str  # "loaded" | "generated"
    topology_path: str | None
    graph_description: str
    num_agreements: int
    sample_size: int
    seed: int
    rows: tuple[DiversityScenarioRow, ...]
    additional_paths_mean: float
    additional_paths_max: float


@dataclass(frozen=True)
class ExperimentsResult(JsonCodec):
    """Outcome of the combined harness (``Session.experiments``)."""

    kind = "experiments_result"

    full: bool
    seed: int | None
    trials: int | None
    jobs: int
    sections: tuple[SectionResult, ...]

    def section(self, key: str) -> SectionResult:
        """Look up one section (``stability``, ``fig2`` … ``fig6``)."""
        for entry in self.sections:
            if entry.key == key:
                return entry
        raise KeyError(
            f"no section {key!r}; available: "
            f"{', '.join(entry.key for entry in self.sections)}"
        )


@dataclass(frozen=True)
class GrcAllResult(JsonCodec):
    """Outcome of the all-sources GRC pass (``Session.grc_all``).

    The envelope carries the deterministic aggregate statistics plus
    the run's shape (jobs/shards) and the content fingerprint of the
    topology the pass ran on; the per-source table travels as a CSV
    file (``output``), not inside the envelope, because at internet
    scale it is tens of thousands of rows.
    """

    kind = "grc_all_result"

    source: str  # "loaded" | "generated"
    topology_path: str | None
    fingerprint: str
    jobs: int
    shards: int
    num_ases: int
    total_paths: int
    mean_paths: float
    max_paths: int
    mean_destinations: float
    max_destinations: int
    output: str | None = None


@dataclass(frozen=True)
class PopulationResult(JsonCodec):
    """Per-profile metrics of a heterogeneous population run.

    Built from the ``profile_metrics`` records a population-carrying
    scenario appends to its trace: one row per behavior profile with
    uptake, realized utility, Price of Dishonesty, and default rate.
    """

    kind = "population_result"

    name: str
    profiles: tuple[dict[str, Any], ...]

    @classmethod
    def from_scenario(cls, result: ScenarioResult) -> "PopulationResult | None":
        """Extract the per-profile metrics of a run (None if homogeneous)."""
        records = result.trace.of_kind("profile_metrics")
        if not records:
            return None
        return cls(
            name=result.name,
            profiles=tuple(dict(record.data) for record in records),
        )


@dataclass(frozen=True)
class SimulateResult(JsonCodec):
    """Outcome of one scenario run (``Session.simulate``).

    The envelope carries the summary-level data (name, seed, horizon,
    counts per record kind, headline lines) — everything the text
    summary renders.  The full in-memory
    :class:`~repro.simulation.scenarios.ScenarioResult` (with its trace)
    rides along for same-process consumers such as ``--trace-out``, but
    is excluded from serialization and equality; use
    ``ScenarioResult.to_json_dict()`` when the whole trace must travel.
    """

    kind = "simulate_result"

    name: str
    seed: int
    duration: float
    events_processed: int
    num_trace_records: int
    kinds: dict[str, int]
    headline: tuple[str, ...]
    trace_out: str | None = None
    #: Per-profile metrics of a heterogeneous population run (None, and
    #: absent from the envelope, for the homogeneous scenarios).
    population: PopulationResult | None = field(default=None, metadata=OMIT_IF_NONE)
    scenario_result: ScenarioResult | None = field(
        default=None, compare=False, repr=False, metadata=IN_PROCESS
    )

    @classmethod
    def from_scenario(
        cls, result: ScenarioResult, *, trace_out: str | None = None
    ) -> "SimulateResult":
        """Build the API result from an engine-level scenario result."""
        return cls(
            name=result.name,
            seed=result.seed,
            duration=result.duration,
            events_processed=result.events_processed,
            num_trace_records=len(result.trace),
            kinds=result.trace.kinds(),
            headline=tuple(result.headline),
            trace_out=trace_out,
            population=PopulationResult.from_scenario(result),
            scenario_result=result,
        )

    def write_trace(self, path: str) -> None:
        """Write the full JSONL metrics trace to ``path``.

        Only available on results that still hold their in-process
        :class:`~repro.simulation.scenarios.ScenarioResult` (not on
        envelope-restored ones).  Raises
        :class:`~repro.errors.OutputError` when the file cannot be
        written.
        """
        if self.scenario_result is None:
            raise ValueError(
                "this result was restored from an envelope and carries no trace"
            )
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self.scenario_result.trace_text())
        except OSError as error:
            raise OutputError(
                f"cannot write trace to {path}: {error.strerror}"
            ) from error


@dataclass(frozen=True)
class NegotiateResult(JsonCodec):
    """Outcome of one batched negotiation pass (``Session.negotiate``).

    The Fig. 2-style Price-of-Dishonesty statistics over the request's
    random configuration trials, plus the rating of the best (lowest
    PoD) configuration.  Every field is a plain finite number, so the
    envelope is byte-stable and cacheable; the ``repro serve`` result
    cache stores the serialized envelope keyed by the request digest.
    """

    kind = "negotiate_result"

    distribution: str
    num_choices: int
    trials: int
    seed: int
    converged_trials: int
    skipped_trials: int
    min_pod: float
    mean_pod: float
    max_pod: float
    mean_equilibrium_choices: float
    best_expected_nash_product: float
    truthful_nash_product: float


@dataclass(frozen=True)
class SweepResult(JsonCodec):
    """Outcome of an executed sweep (``Session.sweep``)."""

    kind = "sweep_result"

    name: str
    executed: tuple[str, ...]
    reused: tuple[str, ...]
    summary_path: str
    num_tables: int
    summary: dict[str, Any]


@dataclass(frozen=True)
class SweepListResult(JsonCodec):
    """Outcome of a ``--list`` sweep expansion (no shard is run)."""

    kind = "sweep_list_result"

    name: str
    shard_ids: tuple[str, ...]


#: The lifecycle states of an asynchronous job, in order of appearance.
#: ``done``/``failed``/``cancelled`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


@dataclass(frozen=True)
class JobStatusResult(JsonCodec):
    """One observation of an asynchronous job (``GET /v1/jobs/<id>``).

    ``progress`` is a small free-form mapping the running workflow
    updates as it goes (sweeps report ``completed``/``total`` shards);
    ``result`` carries the workflow's full result envelope once the
    state is ``done``, and ``error`` an ``error_result`` envelope once
    it is ``failed``.
    """

    kind = "job_status_result"

    job_id: str
    workflow: str
    state: str
    progress: dict[str, Any]
    result: Envelope | None = None
    error: Envelope | None = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise EnvelopeError(
                f"unknown job state {self.state!r}; "
                f"known: {', '.join(JOB_STATES)}"
            )

    @property
    def is_terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self.state in ("done", "failed", "cancelled")


# ----------------------------------------------------------------------
# Pure text renderers: result -> the exact pre-redesign CLI output.
# ----------------------------------------------------------------------
def render_topology_text(result: TopologyResult) -> str:
    """The ``repro topology`` confirmation line."""
    destination = result.output if result.output is not None else "(not written)"
    return (
        f"wrote {result.graph_description} to {destination} "
        f"({result.num_transit_links} transit links, "
        f"{result.num_peering_links} peering links)"
    )


def render_diversity_text(result: DiversityResult) -> str:
    """The ``repro diversity`` report, byte-identical to the original."""
    if result.source == "loaded":
        lines = [f"loaded {result.graph_description} from {result.topology_path}"]
    else:
        lines = [f"generated synthetic topology: {result.graph_description}"]
    lines.append(f"mutuality-based agreements: {result.num_agreements}")
    for row in result.rows:
        lines.append(
            f"{row.scenario:<12} mean length-3 paths = {row.mean_paths:9.0f}   "
            f"mean destinations = {row.mean_destinations:7.0f}"
        )
    lines.append(
        f"additional paths per AS: mean {result.additional_paths_mean:.0f}, "
        f"max {result.additional_paths_max:.0f}"
    )
    return "\n".join(lines)


def render_experiments_text(result: ExperimentsResult) -> str:
    """The combined report text (the historical ``run_all`` string)."""
    return render_report(result.sections)


def render_grc_all_text(result: GrcAllResult) -> str:
    """The ``repro grc-all`` summary report."""
    lines = [
        f"== grc-all: {result.num_ases} ASes, "
        f"{result.jobs} job(s), {result.shards} shard(s) ==",
        f"topology fingerprint: {result.fingerprint}",
        f"total length-3 paths: {result.total_paths}",
        f"paths per source:        mean {result.mean_paths:.2f}, "
        f"max {result.max_paths}",
        f"destinations per source: mean {result.mean_destinations:.2f}, "
        f"max {result.max_destinations}",
    ]
    if result.output is not None:
        lines.append(f"wrote per-source table to {result.output}")
    return "\n".join(lines)


def render_simulate_text(result: SimulateResult) -> str:
    """The scenario summary, byte-identical to ``ScenarioResult.summary``."""
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(result.kinds.items()))
    lines = [
        f"== scenario: {result.name} (seed {result.seed}, "
        f"horizon {result.duration:g}) ==",
        f"events processed: {result.events_processed}",
        f"trace records: {result.num_trace_records} ({kinds})",
        *result.headline,
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class AgentsListResult(JsonCodec):
    """The registered behavior profiles (``repro agents list``)."""

    kind = "agents_list_result"

    profiles: tuple[dict[str, Any], ...]

    @classmethod
    def build(cls) -> "AgentsListResult":
        """Snapshot the behavior registry."""
        from repro.agents.registry import behavior_catalog

        return cls(profiles=behavior_catalog())


@dataclass(frozen=True)
class ScenarioListResult(JsonCodec):
    """The canned scenarios (``repro simulate --list-scenarios``)."""

    kind = "scenario_list_result"

    scenarios: tuple[dict[str, Any], ...]

    @classmethod
    def build(cls) -> "ScenarioListResult":
        """Snapshot the scenario registry."""
        from repro.simulation.scenarios import scenario_catalog

        return cls(scenarios=scenario_catalog())


def render_agents_list_text(result: AgentsListResult) -> str:
    """The ``repro agents list`` profile catalog."""
    lines = [f"== behavior profiles ({len(result.profiles)}) =="]
    for profile in result.profiles:
        lines.append(f"{profile['profile']}: {profile['description']}")
        for param in profile["parameters"]:
            doc = f"  — {param['doc']}" if param["doc"] else ""
            lines.append(
                f"  {param['name']}: {param['type']} = {param['default']!r}{doc}"
            )
    return "\n".join(lines)


def render_scenario_list_text(result: ScenarioListResult) -> str:
    """The ``repro simulate --list-scenarios`` scenario catalog."""
    lines = [f"== scenarios ({len(result.scenarios)}) =="]
    for scenario in result.scenarios:
        lines.append(f"{scenario['name']}: {scenario['description']}")
        for spec in scenario["fields"]:
            lines.append(
                f"  {spec['name']}: {spec['type']} = {spec['default']!r}"
            )
    return "\n".join(lines)


def render_negotiate_text(result: NegotiateResult) -> str:
    """The ``repro negotiate`` summary report."""
    lines = [
        f"== negotiate: {result.distribution} distribution, "
        f"W={result.num_choices}, {result.trials} trials (seed {result.seed}) ==",
        f"converged: {result.converged_trials}/{result.trials} "
        f"({result.skipped_trials} skipped)",
        f"price of dishonesty: min {result.min_pod:.4f}, "
        f"mean {result.mean_pod:.4f}, max {result.max_pod:.4f}",
        f"mean equilibrium choices: {result.mean_equilibrium_choices:.2f}",
        f"best expected Nash product: {result.best_expected_nash_product:.6f} "
        f"(truthful {result.truthful_nash_product:.6f})",
    ]
    return "\n".join(lines)


def render_sweep_text(result: SweepResult) -> str:
    """The sweep run report, byte-identical to ``SweepRunResult.report``."""
    lines = [
        f"== sweep: {result.name} "
        f"({len(result.executed) + len(result.reused)} shards) ==",
        f"computed: {len(result.executed)}   cached: {len(result.reused)}",
        f"summary:  {result.summary_path}",
        f"tables:   {result.num_tables} metric CSVs",
    ]
    return "\n".join(lines)


def render_sweep_list_text(result: SweepListResult) -> str:
    """The ``repro sweep --list`` output."""
    lines = [*result.shard_ids, f"{len(result.shard_ids)} shards"]
    return "\n".join(lines)


def render_job_status_text(result: JobStatusResult) -> str:
    """One human-readable line per job observation."""
    parts = [f"job {result.job_id}", result.workflow, result.state]
    if result.progress:
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(result.progress.items())
        )
        parts.append(f"({rendered})")
    return " ".join(parts)

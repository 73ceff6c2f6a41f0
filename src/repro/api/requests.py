"""Typed requests: construction is validation.

Every workflow of the public API takes a frozen request dataclass.  The
constructors centralize the parameter checks that used to be scattered
across CLI handlers (``_check_seed``, the ``--jobs``/``--trials``/
``--duration`` guards), so a Python-API caller is rejected with exactly
the same :class:`~repro.errors.ValidationError` message a CLI user sees
(the CLI adapter only adds its ``repro <command>: error:`` prefix).

The CLI is derived from these classes: each field is one flag
(``sample_size`` → ``--sample-size``) whose type and default are the
field's, and whose ``--help`` text is the field's ``doc`` metadata.  The
error messages spell the flag (``--seed must be non-negative``) because
the CLI is the surface most humans meet first, and one canonical message
beats two near-duplicates.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.results import (
    DiversityResult,
    ExperimentsResult,
    GrcAllResult,
    NegotiateResult,
    SimulateResult,
    SweepResult,
    TopologyResult,
)
from repro.bargaining.distributions import (
    JointUtilityDistribution,
    paper_distribution_u1,
    paper_distribution_u2,
)
from repro.envelope import INPUT_FILE, SCHEMA_VERSION, JsonCodec
from repro.errors import ValidationError
from repro.simulation.scenarios import SCENARIOS, scenario_field_names
from repro.sweep import DEFAULT_CACHE_DIR, DEFAULT_OUT_DIR

__all__ = [
    "TopologyRequest",
    "DiversityRequest",
    "ExperimentsRequest",
    "GrcAllRequest",
    "SimulateRequest",
    "NegotiateRequest",
    "SweepRequest",
    "JobRequest",
    "Workflow",
    "WORKFLOWS",
    "build_workflow_request",
    "decode_request",
    "NEGOTIATE_DISTRIBUTIONS",
    "TOPOLOGY_FILE_FORMATS",
]

#: On-disk topology serializations ``repro topology``/``grc-all`` speak.
TOPOLOGY_FILE_FORMATS = ("as-rel", "gml")

#: The named joint utility distributions a negotiation can run under.
NEGOTIATE_DISTRIBUTIONS = {
    "u1": paper_distribution_u1,
    "u2": paper_distribution_u2,
}


def _field(default: Any, doc: str, **extra: Any) -> Any:
    """A request field with its help text (the CLI flag's ``--help``)."""
    return field(default=default, metadata={**extra, "doc": doc})


_TIER1 = "number of tier-1 ASes"
_TIER2 = "number of tier-2 ASes"
_TIER3 = "number of tier-3 ASes"
_STUBS = "number of stub ASes"


def _check_seed(seed: int | None) -> None:
    """Seeds feed ``np.random.default_rng``, which rejects negatives."""
    if seed is not None and seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {seed}")


def _check_positive(name: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ValidationError(f"--{name} must be a positive integer, got {value}")


def _check_non_negative(name: str, value: int) -> None:
    if value < 0:
        raise ValidationError(f"--{name} must be non-negative, got {value}")


def _check_tiers(request: Any) -> None:
    """A generated topology needs a tier-1 AS; the other tiers may be empty."""
    _check_positive("tier1", request.tier1)
    for name in ("tier2", "tier3", "stubs"):
        _check_non_negative(name, getattr(request, name))


class _JsonRequest(JsonCodec):
    """Request codec base: ill-typed input is a plain ValidationError."""

    decode_error = ValidationError


@dataclass(frozen=True)
class TopologyRequest(_JsonRequest):
    """Generate a synthetic AS topology (``repro topology``).

    ``output`` is the optional topology file path to write; API callers
    that only want the in-memory topology omit it.  ``file_format``
    selects the serialization of that file: CAIDA ``as-rel`` (the
    default) or ``gml`` for interchange with networkx/igraph-based
    tooling.
    """

    kind = "topology_request"

    tier1: int = _field(8, _TIER1)
    tier2: int = _field(60, _TIER2)
    tier3: int = _field(200, _TIER3)
    stubs: int = _field(800, _STUBS)
    seed: int = _field(2021, "generator seed")
    output: str | None = _field(None, "path of the topology file to write")
    file_format: str = "as-rel"

    def __post_init__(self) -> None:
        _check_tiers(self)
        _check_seed(self.seed)
        if self.file_format not in TOPOLOGY_FILE_FORMATS:
            raise ValidationError(
                f"unknown topology file format {self.file_format!r}; "
                f"available: {', '.join(TOPOLOGY_FILE_FORMATS)}"
            )

    def cache_key(self) -> tuple[int, int, int, int, int]:
        """The session cache key of the generated topology."""
        return (self.tier1, self.tier2, self.tier3, self.stubs, self.seed)


@dataclass(frozen=True)
class DiversityRequest(_JsonRequest):
    """Run the §VI path-diversity analysis (``repro diversity``).

    ``topology`` selects the file to analyze, CAIDA ``as-rel`` or
    ``.gml`` (chosen by suffix); when omitted a synthetic topology is
    generated from the tier knobs.
    """

    kind = "diversity_request"

    topology: str | None = _field(
        None,
        "topology file to analyze: CAIDA as-rel, or .gml by suffix (a "
        "synthetic topology is generated when omitted)",
        **INPUT_FILE,
    )
    sample_size: int = _field(200, "number of ASes to sample")
    seed: int = _field(2021, "sampling seed")
    tier1: int = _field(8, _TIER1)
    tier2: int = _field(60, _TIER2)
    tier3: int = _field(200, _TIER3)
    stubs: int = _field(800, _STUBS)

    def __post_init__(self) -> None:
        _check_positive("sample-size", self.sample_size)
        _check_seed(self.seed)
        _check_tiers(self)

    def generation_key(self) -> tuple[int, int, int, int, int]:
        """The session cache key of the generated topology (no file)."""
        return (self.tier1, self.tier2, self.tier3, self.stubs, self.seed)


@dataclass(frozen=True)
class ExperimentsRequest(_JsonRequest):
    """Run the combined experiment harness (``repro experiments``).

    ``jobs > 1`` runs the report sections in worker processes that each
    build their own diversity context; nothing is written to disk.
    """

    kind = "experiments_request"

    full: bool = _field(False, "use the paper's trial counts and sample sizes (slower)")
    seed: int | None = _field(
        None,
        "seed every experiment for an end-to-end reproducible run "
        "(defaults to each experiment's own seed)",
    )
    trials: int | None = _field(
        None,
        "Fig. 2 trials per choice-set cardinality (200 = paper scale; "
        "defaults to the run scale's own trial count)",
    )
    jobs: int = _field(
        1,
        "run the figure sections in N worker processes; the report is "
        "merged in a fixed order, so seeded output is byte-identical to a "
        "sequential run",
    )

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        _check_positive("jobs", self.jobs)
        _check_positive("trials", self.trials)


@dataclass(frozen=True)
class GrcAllRequest(_JsonRequest):
    """Run the all-sources GRC pass (``repro grc-all``).

    ``topology`` selects the input file — CAIDA ``as-rel`` (ingested via
    the streaming compiler, never materializing the dict graph) or
    ``.gml``; when omitted a synthetic topology is generated from the
    tier knobs.  ``jobs > 1`` shards the source index space across
    worker processes that share one memory-mapped artifact;
    ``shards`` overrides the default one-range-per-job split.
    ``output`` writes the per-source CSV table.
    """

    kind = "grc_all_request"

    topology: str | None = _field(
        None,
        "topology file to ingest: CAIDA as-rel (streaming-compiled, the "
        "internet-scale path) or .gml; a synthetic topology is generated "
        "when omitted",
        **INPUT_FILE,
    )
    jobs: int = _field(
        1,
        "shard the source index space across N worker processes sharing "
        "one memory-mapped artifact; output is byte-identical to a "
        "sequential pass",
    )
    shards: int | None = _field(None, "number of contiguous source ranges (default: one per job)")
    output: str | None = _field(
        None, "write the per-source asn,paths,destinations table to this CSV"
    )
    artifact_dir: str | None = _field(
        None,
        "root of the memory-mapped topology artifact store used under "
        "--jobs (default: .topology-cache, or $REPRO_TOPOLOGY_STORE)",
    )
    tier1: int = _field(8, _TIER1)
    tier2: int = _field(60, _TIER2)
    tier3: int = _field(200, _TIER3)
    stubs: int = _field(800, _STUBS)
    seed: int = _field(2021, "generator seed (no --topology)")

    def __post_init__(self) -> None:
        _check_positive("jobs", self.jobs)
        _check_positive("shards", self.shards)
        _check_seed(self.seed)
        _check_tiers(self)

    def generation_key(self) -> tuple[int, int, int, int, int]:
        """The session cache key of the generated topology (no file)."""
        return (self.tier1, self.tier2, self.tier3, self.stubs, self.seed)


@dataclass(frozen=True)
class SimulateRequest(_JsonRequest):
    """Run a canned discrete-event scenario (``repro simulate``)."""

    kind = "simulate_request"

    scenario: str = _field("failure-churn", "canned scenario to run")
    seed: int | None = _field(None, "simulation seed (default: scenario's)")
    duration: float | None = _field(None, "virtual-time horizon in hours (default: scenario's)")
    trace_out: str | None = _field(None, "write the full JSONL metrics trace to this file")
    population: str | None = _field(
        None,
        "JSON population spec mapping behavior profiles onto AS sets "
        "(scenarios with a 'population' field only; see README 'Agents')",
        **INPUT_FILE,
    )

    def __post_init__(self) -> None:
        # Checked in the order the CLI historically reported them.
        if self.duration is not None and not (
            math.isfinite(self.duration) and self.duration >= 0.0
        ):
            raise ValidationError(
                f"--duration must be a non-negative finite number of hours, "
                f"got {self.duration:g}"
            )
        _check_seed(self.seed)
        if self.scenario not in SCENARIOS:
            raise ValidationError(
                f"unknown scenario {self.scenario!r}; "
                f"available: {', '.join(sorted(SCENARIOS))}"
            )
        if self.population is not None:
            if not self.population:
                raise ValidationError("--population must be a non-empty file path")
            supported = sorted(
                name
                for name in SCENARIOS
                if "population" in scenario_field_names(name)
            )
            if "population" not in scenario_field_names(self.scenario):
                raise ValidationError(
                    f"--population is not supported by scenario "
                    f"{self.scenario!r}; scenarios with populations: "
                    f"{', '.join(supported)}"
                )


@dataclass(frozen=True)
class NegotiateRequest(_JsonRequest):
    """Run a batched BOSCO negotiation pass (``repro negotiate``).

    The Fig. 2 workload as a service unit: ``trials`` random choice-set
    configuration trials at cardinality ``num_choices`` under one of
    the paper's named joint utility distributions, rated by the Price
    of Dishonesty.  Requests sharing ``(distribution, num_choices)``
    form one *coalescing group*: the ``repro serve`` scheduler may pack
    any number of them into a single engine batch without changing any
    request's result.
    """

    kind = "negotiate_request"

    distribution: str = _field("u1", "joint utility distribution from the paper")
    num_choices: int = _field(50, "choice-set cardinality W per party")
    trials: int = _field(40, "random choice-set configuration trials")
    seed: int = _field(7, "trial-draw seed")

    def __post_init__(self) -> None:
        if self.distribution not in NEGOTIATE_DISTRIBUTIONS:
            raise ValidationError(
                f"unknown distribution {self.distribution!r}; "
                f"available: {', '.join(sorted(NEGOTIATE_DISTRIBUTIONS))}"
            )
        _check_positive("num-choices", self.num_choices)
        _check_positive("trials", self.trials)
        _check_seed(self.seed)

    def joint_distribution(self) -> JointUtilityDistribution:
        """The named distribution, materialized."""
        return NEGOTIATE_DISTRIBUTIONS[self.distribution]()

    def coalesce_key(self) -> tuple[str, int]:
        """The group key under which requests may share one game batch.

        Everything that constrains :class:`~repro.bargaining.engine.GameBatch`
        packing: the joint distribution and the choice-set cardinality.
        ``trials`` and ``seed`` deliberately stay out — cohorts of
        different sizes and seeds pack fine.
        """
        return (self.distribution, self.num_choices)


@dataclass(frozen=True)
class JobRequest(_JsonRequest):
    """Submit a workflow for asynchronous execution (``POST /v1/jobs``).

    ``workflow`` names the workflow to run (a :data:`WORKFLOWS` key);
    ``request`` carries that workflow's request as a JSON object —
    either its full envelope or a bare payload.  Construction validates
    the inner request eagerly, so a malformed submission is rejected at
    ``POST`` time with a ``400`` instead of surfacing later as a failed
    job.
    """

    kind = "job_request"

    workflow: str
    request: Mapping[str, Any]

    def __post_init__(self) -> None:
        self.typed_request()

    def typed_request(self) -> Any:
        """The validated typed request the job will execute."""
        return build_workflow_request(self.workflow, self.request)


@dataclass(frozen=True)
class SweepRequest(_JsonRequest):
    """Run (or list) a sharded parameter sweep (``repro sweep``).

    Exactly one of ``spec`` (a JSON spec file path) and ``smoke`` (the
    built-in CI grid) selects the sweep.
    """

    kind = "sweep_request"

    spec: str | None = _field(
        None,
        "JSON sweep spec file (see README 'Sweeps & CI' for the format)",
        **INPUT_FILE,
    )
    smoke: bool = _field(False, "run the built-in tiny CI smoke grid instead of a spec file")
    jobs: int = _field(
        1,
        "run shards in N worker processes (results merge in a fixed "
        "order, so the summary is byte-identical to a sequential run)",
    )
    out: str | None = _field(
        None,
        f"directory for sweep_summary.json and the per-metric CSV "
        f"tables (default: {DEFAULT_OUT_DIR})",
    )
    cache_dir: str | None = _field(
        None,
        f"shard result cache directory; re-runs and interrupted sweeps "
        f"resume from it (default: {DEFAULT_CACHE_DIR})",
    )
    force: bool = _field(False, "recompute every shard even when a cached result exists")
    list_shards: bool = _field(False, "print the expanded shard list without running anything")

    def __post_init__(self) -> None:
        _check_positive("jobs", self.jobs)
        if self.smoke == (self.spec is not None):
            raise ValidationError(
                "exactly one of 'spec' and 'smoke' must select the sweep"
            )


def decode_request(request_type: type[_JsonRequest], document: Any) -> Any:
    """Decode (and validate) a request from its envelope or bare payload.

    A bare payload is the envelope without its header; both forms reject
    unknown and ill-typed fields (and non-objects) and run the
    constructor's checks.
    """
    if isinstance(document, Mapping) and {"kind", "schema_version"}.isdisjoint(document):
        document = {"schema_version": SCHEMA_VERSION, "kind": request_type.kind, **document}
    return request_type.from_json_dict(document)


@dataclass(frozen=True)
class Workflow:
    """One workflow, wired once for the job API, the server and the client.

    ``name`` is the CLI subcommand; :attr:`method` the
    :class:`~repro.api.session.Session` method that runs it.
    ``routable`` workflows answer ``POST /v1/<name>``; ``cacheable``
    says whether ``repro serve`` may replay a request's response bytes
    (never for file writes, which a replayed body would silently skip).
    """

    name: str
    request_type: type[_JsonRequest]
    result_type: type[JsonCodec]
    routable: bool
    cacheable: Callable[[Any], bool]

    @property
    def method(self) -> str:
        return self.name.replace("-", "_")


#: The one workflow table.  A sweep with ``list_shards`` returns a
#: SweepListResult.
WORKFLOWS: dict[str, Workflow] = {
    w.name: w
    for w in (
        Workflow("topology", TopologyRequest, TopologyResult, True, lambda r: r.output is None),
        Workflow("diversity", DiversityRequest, DiversityResult, True, lambda r: True),
        Workflow("experiments", ExperimentsRequest, ExperimentsResult, True, lambda r: True),
        Workflow("grc-all", GrcAllRequest, GrcAllResult, False, lambda r: r.output is None),
        Workflow("simulate", SimulateRequest, SimulateResult, True, lambda r: r.trace_out is None),
        Workflow("negotiate", NegotiateRequest, NegotiateResult, True, lambda r: True),
        Workflow("sweep", SweepRequest, SweepResult, False, lambda r: False),
    )
}


def build_workflow_request(workflow: str, document: Mapping[str, Any]) -> Any:
    """Build (and validate) the typed request of a named workflow."""
    if not isinstance(workflow, str) or workflow not in WORKFLOWS:
        raise ValidationError(
            f"unknown workflow {workflow!r}; available: {', '.join(sorted(WORKFLOWS))}"
        )
    return decode_request(WORKFLOWS[workflow].request_type, document)

"""`repro.api` — the typed public surface of the reproduction.

One import gives a downstream consumer everything the CLI offers,
programmatically and with structure instead of strings:

- :class:`Session` — the entry point.  A session owns the expensive
  shared state (generated/loaded topologies keyed by their parameters,
  compiled path engines, mutuality-agreement enumerations and path
  indexes, the shared experiment context, one
  :class:`~repro.bargaining.engine.NegotiationEngine`) and reuses it
  across calls, so repeated programmatic calls are much faster than
  rebuilding per call (see ``benchmarks/bench_api_session.py``).
- Typed request dataclasses (:mod:`repro.api.requests`) — construction
  *is* validation: a bad value raises
  :class:`~repro.errors.ValidationError` with the same message a CLI
  user sees, before any work runs.
- Typed result dataclasses (:mod:`repro.api.results`) — every workflow
  returns structured data with a schema-versioned
  ``to_json_dict()``/``from_json_dict()`` JSON envelope, and the CLI's
  text output is a pure rendering of the same value.
- The :class:`~repro.errors.ReproError` taxonomy with its stable exit
  codes (:func:`~repro.errors.exit_code_for`).

A typical lifecycle::

    from repro.api import DiversityRequest, ExperimentsRequest, Session

    session = Session()
    diversity = session.diversity(DiversityRequest(sample_size=100, seed=1))
    experiments = session.experiments(ExperimentsRequest(seed=7))
    payload = experiments.to_json_dict()   # schema-versioned envelope

``repro.cli`` is a thin adapter over this package, and
``python -m repro.api.validate`` checks envelope files in CI.
"""

from repro.api.adapter import main
from repro.api.requests import (
    WORKFLOWS,
    DiversityRequest,
    ExperimentsRequest,
    GrcAllRequest,
    JobRequest,
    NegotiateRequest,
    SimulateRequest,
    SweepRequest,
    TopologyRequest,
    build_workflow_request,
)
from repro.api.results import (
    AgentsListResult,
    DiversityResult,
    DiversityScenarioRow,
    ExperimentsResult,
    GrcAllResult,
    JobStatusResult,
    NegotiateResult,
    PopulationResult,
    ScenarioListResult,
    SimulateResult,
    SweepListResult,
    SweepResult,
    TopologyResult,
)
from repro.api.session import Session
from repro.envelope import SCHEMA_VERSION
from repro.errors import (
    EnvelopeError,
    OutputError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    ValidationError,
    exit_code_for,
    http_status_for,
)
from repro.experiments.reporting import (
    PaperComparison,
    SectionResult,
    SectionSeries,
    SectionTable,
)

__all__ = [
    "SCHEMA_VERSION",
    "Session",
    "main",
    # requests
    "TopologyRequest",
    "DiversityRequest",
    "ExperimentsRequest",
    "GrcAllRequest",
    "SimulateRequest",
    "NegotiateRequest",
    "SweepRequest",
    "JobRequest",
    "WORKFLOWS",
    "build_workflow_request",
    # results
    "TopologyResult",
    "DiversityResult",
    "DiversityScenarioRow",
    "ExperimentsResult",
    "GrcAllResult",
    "SectionResult",
    "SectionTable",
    "SectionSeries",
    "PaperComparison",
    "SimulateResult",
    "PopulationResult",
    "AgentsListResult",
    "ScenarioListResult",
    "NegotiateResult",
    "SweepResult",
    "SweepListResult",
    "JobStatusResult",
    # errors
    "ReproError",
    "ValidationError",
    "OutputError",
    "EnvelopeError",
    "ServiceError",
    "ServiceUnavailableError",
    "exit_code_for",
    "http_status_for",
]

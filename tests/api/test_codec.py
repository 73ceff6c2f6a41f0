"""The annotation-driven envelope codec: type checks, registry, fuzzing.

Every request type of the workflow table, and every input document
(population specs, behavior parameters, scenario overrides), decodes
through :class:`repro.envelope.JsonCodec`; whatever JSON value lands in
whatever field, decoding either yields the typed value or raises a
:class:`ValidationError` — never a bare ``TypeError`` that a server
would turn into a 500.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    WORKFLOWS,
    DiversityResult,
    EnvelopeError,
    JobRequest,
    JobStatusResult,
    NegotiateRequest,
    NegotiateResult,
    PopulationResult,
    SimulateRequest,
    SimulateResult,
    ValidationError,
)
from repro.agents import BEHAVIORS, GroupMatch, PopulationGroup, PopulationSpec
from repro.api.requests import decode_request
from repro.api.validate import validate_envelope
from repro.envelope import KINDS, SCHEMA_VERSION
from repro.simulation.scenarios import SCENARIOS

#: Every JSON value a client can send (json.loads also accepts the
#: NaN/Infinity literals, so non-finite floats are in scope too).
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**30), 2**63, -1, 0])
    | st.floats()
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

FIELDS = [
    (workflow.name, field.name)
    for workflow in WORKFLOWS.values()
    for field in dataclasses.fields(workflow.request_type)
]

#: The input-document decoders: population specs, behaviors, scenarios.
DOCUMENT_TYPES = [PopulationSpec, *BEHAVIORS.values(), *SCENARIOS.values()]
DOCUMENT_FIELDS = [
    (cls, field.name)
    for cls in (*DOCUMENT_TYPES, PopulationGroup, GroupMatch)
    for field in dataclasses.fields(cls)
]


def _in_population(cls, field, value):
    """A population document with ``value`` in a field of ``cls`` (or None)."""
    if cls is PopulationSpec:
        return {field: value}
    if cls is PopulationGroup:
        group = {"profile": "honest", field: value}
    elif cls is GroupMatch:
        group = {"profile": "honest", "match": {field: value}}
    elif cls in BEHAVIORS.values():
        group = {"profile": cls.profile, "params": {field: value}}
    else:
        return None
    return {"groups": [group]}


def decodes_or_rejects(decode, *args):
    """Decode; a ValidationError is a clean rejection (returns None)."""
    try:
        return decode(*args)
    except ValidationError:
        return None


class TestRequestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(target=st.sampled_from(FIELDS), value=JSON_VALUES)
    def test_any_json_value_in_any_field_decodes_or_is_rejected(self, target, value):
        name, field = target
        request_type = WORKFLOWS[name].request_type
        payload = {field: value}
        enveloped = {"schema_version": SCHEMA_VERSION, "kind": request_type.kind, **payload}
        decodes_or_rejects(decode_request, request_type, payload)
        decodes_or_rejects(request_type.from_json_dict, enveloped)
        decodes_or_rejects(decode_request, JobRequest, {"workflow": name, "request": payload})

    @settings(max_examples=100, deadline=None)
    @given(document=JSON_VALUES)
    def test_any_json_document_decodes_or_is_rejected(self, document):
        for workflow in WORKFLOWS.values():
            decodes_or_rejects(decode_request, workflow.request_type, document)
        decodes_or_rejects(decode_request, JobRequest, document)
        for document_type in DOCUMENT_TYPES:
            decodes_or_rejects(document_type.from_json_dict, document)

    @settings(max_examples=300, deadline=None)
    @given(target=st.sampled_from(DOCUMENT_FIELDS), value=JSON_VALUES)
    def test_any_json_value_in_any_document_field_decodes_or_is_rejected(self, target, value):
        cls, field = target
        decodes_or_rejects(cls.from_json_dict, {field: value})
        document = _in_population(cls, field, value)
        if document is not None:
            decodes_or_rejects(PopulationSpec.from_json_dict, document)


class TestTypeChecks:
    @pytest.mark.parametrize(
        ("payload", "message"),
        [
            ({"num_choices": "abc"}, "num_choices must be an integer, got string"),
            ({"trials": 2.5}, "trials must be an integer, got number"),
            ({"seed": True}, "seed must be an integer, got boolean"),
            ({"distribution": None}, "distribution must be a string, got null"),
        ],
    )
    def test_wrong_types_name_kind_field_and_both_types(self, payload, message):
        with pytest.raises(ValidationError) as caught:
            decode_request(NegotiateRequest, payload)
        assert str(caught.value) == f"negotiate_request.{message}"
        # Requests reject with the plain class, not the envelope subclass.
        assert type(caught.value) is ValidationError

    def test_float_fields_take_integers_and_reject_non_finite(self):
        assert decode_request(SimulateRequest, {"duration": 6}).duration == 6.0
        assert isinstance(decode_request(SimulateRequest, {"duration": 6}).duration, float)
        for bad in (float("inf"), float("nan"), 10**400):
            with pytest.raises(ValidationError, match="duration must be a finite number"):
                decode_request(SimulateRequest, {"duration": bad})
        with pytest.raises(ValidationError, match="must be a number, got boolean"):
            decode_request(SimulateRequest, {"duration": True})

    def test_paths_must_be_strings(self):
        with pytest.raises(ValidationError, match="simulate_request.trace_out must be a"):
            decode_request(SimulateRequest, {"trace_out": 5})

    def test_result_kinds_raise_envelope_errors_with_nested_paths(self):
        document = NegotiateResult(
            distribution="u1",
            num_choices=2,
            trials=1,
            seed=0,
            converged_trials=1,
            skipped_trials=0,
            min_pod=1.0,
            mean_pod=1.0,
            max_pod=1.0,
            mean_equilibrium_choices=1.0,
            best_expected_nash_product=0.5,
            truthful_nash_product=0.5,
        ).to_json_dict()
        document["min_pod"] = "1.0"
        with pytest.raises(EnvelopeError, match="negotiate_result.min_pod must be a number"):
            NegotiateResult.from_json_dict(document)
        rows = {
            "schema_version": SCHEMA_VERSION,
            "kind": "diversity_result",
            "source": "generated",
            "topology_path": None,
            "graph_description": "g",
            "num_agreements": 1,
            "sample_size": 1,
            "seed": 1,
            "rows": [{"scenario": "GRC", "mean_paths": 1.0, "mean_destinations": []}],
            "additional_paths_mean": 0.0,
            "additional_paths_max": 0.0,
        }
        with pytest.raises(
            EnvelopeError, match=r"diversity_result\.rows\[\]\.mean_destinations must be"
        ):
            DiversityResult.from_json_dict(rows)

    def test_unknown_and_missing_fields(self):
        with pytest.raises(ValidationError, match="unknown negotiate_request field"):
            decode_request(NegotiateRequest, {"bogus": 1})
        with pytest.raises(ValidationError, match="missing required key.*request"):
            decode_request(JobRequest, {"workflow": "negotiate"})


class TestEncoding:
    def test_population_key_is_absent_while_none(self):
        result = SimulateResult(
            name="s",
            seed=1,
            duration=1.0,
            events_processed=0,
            num_trace_records=0,
            kinds={},
            headline=(),
        )
        assert "population" not in result.to_json_dict()
        assert "scenario_result" not in result.to_json_dict()
        with_population = dataclasses.replace(
            result, population=PopulationResult(name="p", profiles=({"profile": "honest"},))
        )
        document = json.loads(json.dumps(with_population.to_json_dict()))
        assert document["population"]["kind"] == "population_result"
        assert SimulateResult.from_json_dict(document) == with_population

    def test_encoding_keeps_values_as_they_are(self):
        document = NegotiateRequest(num_choices=3).to_json_dict()
        assert list(document) == [
            "schema_version",
            "kind",
            "distribution",
            "num_choices",
            "trials",
            "seed",
        ]
        assert type(document["num_choices"]) is int


class TestRegistry:
    def test_required_keys_are_the_fields_without_defaults(self):
        for kind, cls in KINDS.items():
            expected = [
                f.name
                for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ]
            problems = validate_envelope({"schema_version": SCHEMA_VERSION, "kind": kind})
            if expected:
                quoted = ", ".join(repr(name) for name in expected)
                assert problems == [f"{kind} is missing required key(s): {quoted}"]
            else:  # an all-default request decodes, or fails its own checks
                assert not any("missing" in p for p in problems), (kind, problems)

    def test_every_workflow_kind_is_registered(self):
        for workflow in WORKFLOWS.values():
            assert KINDS[workflow.request_type.kind] is workflow.request_type
            assert KINDS[workflow.result_type.kind] is workflow.result_type

    def test_validator_recurses_into_population_and_job_envelopes(self):
        population = {"schema_version": SCHEMA_VERSION, "kind": "population_result"}
        simulate = {
            "schema_version": SCHEMA_VERSION,
            "kind": "simulate_result",
            "name": "s",
            "seed": 1,
            "duration": 1.0,
            "events_processed": 0,
            "num_trace_records": 0,
            "kinds": {},
            "headline": [],
            "population": population,
        }
        assert any(
            p.startswith("simulate_result.population is missing")
            for p in validate_envelope(simulate)
        )
        status = JobStatusResult(
            job_id="j", workflow="negotiate", state="failed", progress={}
        ).to_json_dict()
        for name, kind in (("result", "negotiate_result"), ("error", "error_result")):
            nested = dict(status, **{name: {"schema_version": SCHEMA_VERSION, "kind": kind}})
            problems = validate_envelope(nested)
            assert any(
                p.startswith(f"job_status_result.{name} is missing") for p in problems
            ), problems

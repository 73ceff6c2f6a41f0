"""Ill-typed request bodies are 400s, on the routes and in job submissions.

The fuzz test sends one JSON value in one field of one workflow's
request to an in-process :class:`ServeService` — as the route's body
and inside a ``/v1/jobs`` submission — and requires a ``400``
``error_result`` whenever the request does not decode (decodable
requests would run real work, so they are not sent).  The explicit
cases pin inputs that once reached the workflows untyped: wrong scalar
types were 500s, and integers in path fields were opened as file
descriptors and closed.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import WORKFLOWS, Session, ValidationError
from repro.api.requests import decode_request
from repro.api.validate import validate_envelope
from repro.serve.http import HttpRequest
from repro.serve.service import ServeService

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**30)])
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
ROUTABLE_FIELDS = [
    (workflow.name, name)
    for workflow in WORKFLOWS.values()
    if workflow.routable
    for name in workflow.request_type.__dataclass_fields__
]
TINY_NEGOTIATE = {"num_choices": 10, "trials": 5, "seed": 3}


def post(service: ServeService, path: str, payload) -> tuple[int, dict]:
    body = json.dumps(payload).encode()
    request = HttpRequest(method="POST", path=path, query="", body=body)
    status, body, _ = asyncio.run(service.handle(request))
    return status, json.loads(body)


@pytest.fixture(scope="module")
def service():
    service = ServeService(Session(), cache_entries=8)
    yield service
    asyncio.run(service.aclose())


def assert_rejected(status: int, document: dict) -> None:
    assert status == 400, document
    assert document["kind"] == "error_result"
    assert document["exit_code"] == 2
    assert validate_envelope(document) == []


class TestFuzzedBodies:
    @settings(max_examples=150, deadline=None)
    @given(target=st.sampled_from(ROUTABLE_FIELDS), value=JSON_VALUES)
    def test_undecodable_requests_are_400_never_500(self, service, target, value):
        name, field = target
        payload = {field: value}
        try:
            decode_request(WORKFLOWS[name].request_type, payload)
        except ValidationError:
            pass
        else:
            return  # a valid request would run the workflow
        assert_rejected(*post(service, f"/v1/{name}", payload))
        assert_rejected(*post(service, "/v1/jobs", {"workflow": name, "request": payload}))


class TestProbedInputs:
    @pytest.mark.parametrize(
        "submission",
        [
            {"workflow": "negotiate", "request": {"num_choices": "abc"}},
            {"workflow": "negotiate", "request": {"trials": 2.5}},
            {"workflow": "topology", "request": {"tier1": None}},
            {"workflow": ["x"], "request": {}},
            {"workflow": "experiments", "request": {"jobs": True}},
            {"workflow": "experiments", "request": {"full": "yes"}},
            {"workflow": "negotiate", "request": 5},
            {"workflow": "negotiate"},
        ],
    )
    def test_mistyped_job_submissions_are_400(self, service, submission):
        assert_rejected(*post(service, "/v1/jobs", submission))

    @pytest.mark.parametrize(
        ("route", "payload", "field"),
        [
            ("/v1/diversity", {"topology": 7}, "diversity_request.topology"),
            ("/v1/simulate", {"trace_out": 5}, "simulate_request.trace_out"),
            ("/v1/negotiate", {"num_choices": "abc"}, "negotiate_request.num_choices"),
            ("/v1/experiments", {"full": "yes"}, "experiments_request.full"),
        ],
    )
    def test_mistyped_fields_are_400_and_the_service_keeps_serving(
        self, service, route, payload, field
    ):
        status, document = post(service, route, payload)
        assert_rejected(status, document)
        assert field in document["error"]
        # Nothing was opened or closed: the next valid request succeeds.
        status, document = post(service, "/v1/negotiate", TINY_NEGOTIATE)
        assert status == 200
        assert document["kind"] == "negotiate_result"

    @pytest.mark.parametrize("body", [b"1" * 5000, b"[" * 100_000])
    def test_unparseable_bodies_are_400(self, service, body):
        request = HttpRequest(method="POST", path="/v1/negotiate", query="", body=body)
        status, response, _ = asyncio.run(service.handle(request))
        assert_rejected(status, json.loads(response))

"""A malformed, non-UTF-8 or ill-typed input file is a ValidationError.

Every workflow that reads a file names it (or the ill-typed field) in a
clean error: exit 2 from the CLI, HTTP 400 from the server for the
routable workflows — never a traceback or an internal 500.
"""

import asyncio
import json

import pytest

from repro.api import Session
from repro.api.requests import WORKFLOWS
from repro.cli import main
from repro.serve.http import HttpRequest
from repro.serve.service import ServeService

NOT_UTF8 = b"\xff\xfe1|2|0\n"

#: workflow -> (CLI argv before the file path, request payload, file field)
INPUTS = {
    "diversity": (["diversity", "--topology"], {}, "topology"),
    "grc-all": (["grc-all", "--topology"], {}, "topology"),
    "simulate": (
        ["simulate", "--scenario", "marketplace-heterogeneous", "--population"],
        {"scenario": "marketplace-heterogeneous"},
        "population",
    ),
    "sweep": (["sweep", "--spec"], {}, "spec"),
}


def _sweep_spec(**fields) -> bytes:
    spec = {"name": "bad", "scales": ["tiny"], "seeds": [1], "figures": ["fig3"]}
    return json.dumps({**spec, **fields}).encode()


def _churn(**override) -> bytes:
    return _sweep_spec(figures=[], scenarios=[{"scenario": "failure-churn", **override}])


#: (workflow, file name, content, what the error names: None = the file path)
CASES = [
    ("diversity", "unknown-code.txt", b"1|2|7\n", None),
    ("diversity", "non-numeric.txt", b"a|b|0\n", None),
    ("diversity", "self-loop.txt", b"1|1|0\n", None),
    ("diversity", "conflicting-duplicate.txt", b"1|2|-1\n1|2|0\n", None),
    ("diversity", "not-utf8.txt", NOT_UTF8, None),
    ("diversity", "not-utf8.gml", NOT_UTF8, None),
    ("grc-all", "unknown-code.txt", b"1|2|7\n", None),
    ("grc-all", "conflicting-duplicate.txt", b"1|2|-1\n1|2|0\n", None),
    ("grc-all", "not-utf8.txt", NOT_UTF8, None),
    ("grc-all", "not-utf8.gml", NOT_UTF8, None),
    ("simulate", "not-utf8.json", NOT_UTF8, None),
    ("sweep", "not-utf8.json", NOT_UTF8, None),
    # Well-formed JSON with an ill-typed field: the error names the field.
    (
        "simulate",
        "region-string.json",
        b'{"groups": [{"profile": "budget", "match": {"region": "3"}}]}',
        "PopulationSpec.groups[].match.region",
    ),
    (
        "simulate",
        "profile-list.json",
        b'{"groups": [{"profile": ["dishonest"]}]}',
        "PopulationSpec.groups[].profile",
    ),
    ("simulate", "seed-string.json", b'{"seed": "abc"}', "PopulationSpec.seed"),
    ("sweep", "duration-string.json", _churn(duration="abc"), "FailureChurnScenario.duration"),
    ("sweep", "num-pairs-float.json", _churn(num_pairs=2.5), "FailureChurnScenario.num_pairs"),
    ("sweep", "seed-list.json", _sweep_spec(seeds=[[1]]), "seeds"),
]


def post(workflow: str, payload: dict) -> tuple[int, dict]:
    service = ServeService(Session(), coalesce_window_ms=0.0, cache_entries=8)
    request = HttpRequest(
        method="POST", path=f"/v1/{workflow}", query="", body=json.dumps(payload).encode()
    )
    status, body, _ = asyncio.run(service.handle(request))
    return status, json.loads(body)


@pytest.mark.parametrize(
    "workflow, name, content, names", CASES, ids=[f"{w}-{n}" for w, n, _, _ in CASES]
)
def test_bad_input_file_is_a_validation_error(tmp_path, capsys, workflow, name, content, names):
    path = tmp_path / name
    path.write_bytes(content)
    expected = names or str(path)
    argv, payload, field = INPUTS[workflow]
    assert main([*argv, str(path)]) == 2
    assert expected in capsys.readouterr().err
    if WORKFLOWS[workflow].routable:
        status, document = post(workflow, {**payload, field: str(path)})
        assert status == 400
        assert document["exit_code"] == 2
        assert expected in document["error"]


"""A malformed or non-UTF-8 input file is a ValidationError.

Every workflow that reads a file names it in a clean error: exit 2 from
the CLI, HTTP 400 from the server for the routable workflows — never a
traceback or an internal 500.
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

CASES = [
    ("diversity", "unknown-code.txt", b"1|2|7\n"),
    ("diversity", "non-numeric.txt", b"a|b|0\n"),
    ("diversity", "self-loop.txt", b"1|1|0\n"),
    ("diversity", "conflicting-duplicate.txt", b"1|2|-1\n1|2|0\n"),
    ("diversity", "not-utf8.txt", NOT_UTF8),
    ("diversity", "not-utf8.gml", NOT_UTF8),
    ("grc-all", "unknown-code.txt", b"1|2|7\n"),
    ("grc-all", "conflicting-duplicate.txt", b"1|2|-1\n1|2|0\n"),
    ("grc-all", "not-utf8.txt", NOT_UTF8),
    ("grc-all", "not-utf8.gml", NOT_UTF8),
    ("simulate", "not-utf8.json", NOT_UTF8),
    ("sweep", "not-utf8.json", NOT_UTF8),
]


def post(workflow: str, payload: dict) -> tuple[int, dict]:
    service = ServeService(Session(), coalesce_window_ms=0.0, cache_entries=8)
    request = HttpRequest(
        method="POST", path=f"/v1/{workflow}", query="", body=json.dumps(payload).encode()
    )
    status, body, _ = asyncio.run(service.handle(request))
    return status, json.loads(body)


@pytest.mark.parametrize(
    "workflow, name, content", CASES, ids=[f"{w}-{n}" for w, n, _ in CASES]
)
def test_bad_input_file_is_a_validation_error(tmp_path, capsys, workflow, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    argv, payload, field = INPUTS[workflow]
    assert main([*argv, str(path)]) == 2
    assert str(path) in capsys.readouterr().err
    if WORKFLOWS[workflow].routable:
        status, document = post(workflow, {**payload, field: str(path)})
        assert status == 400
        assert document["exit_code"] == 2
        assert str(path) in document["error"]

"""The CLI surface is derived from the workflow table, and it is complete.

Every request field of every workflow is exactly one flag whose ``dest``
and default are the field's; the ``serve`` flags mirror ``ServeConfig``.
A pinned table holds every subcommand's option strings, destinations,
types, choices and required-ness, so a derivation change that renames,
drops or retypes a flag fails here rather than in a user's script.
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.api.adapter import build_parser, run_experiments_command
from repro.api.requests import WORKFLOWS, TopologyRequest
from repro.serve.server import ServeConfig

_TIERS = {
    "tier1": (("--tier1",), "int", None, False),
    "tier2": (("--tier2",), "int", None, False),
    "tier3": (("--tier3",), "int", None, False),
    "stubs": (("--stubs",), "int", None, False),
}
_FORMAT = {"format": (("--format",), None, ("text", "json"), False)}

#: dest → (option strings, type, choices, required), per subcommand.
#: ``diversity``'s tier flags are the request fields it always had;
#: every other row is the surface the hand-written parser had.
PINNED = {
    "topology": {
        "output": ((), None, None, True),
        **_TIERS,
        "seed": (("--seed",), "int", None, False),
        "format": (("--format",), None, ("text", "json", "gml"), False),
    },
    "diversity": {
        "topology": (("--topology",), None, None, False),
        "sample_size": (("--sample-size",), "int", None, False),
        "seed": (("--seed",), "int", None, False),
        **_TIERS,
        **_FORMAT,
    },
    "grc-all": {
        "topology": (("--topology",), None, None, False),
        "jobs": (("--jobs",), "int", None, False),
        "shards": (("--shards",), "int", None, False),
        "output": (("--output",), None, None, False),
        "artifact_dir": (("--artifact-dir",), None, None, False),
        **_TIERS,
        "seed": (("--seed",), "int", None, False),
        **_FORMAT,
    },
    "experiments": {
        "full": (("--full",), None, None, False),
        "seed": (("--seed",), "int", None, False),
        "trials": (("--trials",), "int", None, False),
        "jobs": (("--jobs",), "int", None, False),
        **_FORMAT,
    },
    "simulate": {
        "scenario": (
            ("--scenario",),
            None,
            ("failure-churn", "flash-crowd", "marketplace", "marketplace-heterogeneous"),
            False,
        ),
        "seed": (("--seed",), "int", None, False),
        "duration": (("--duration",), "float", None, False),
        "trace_out": (("--trace-out",), None, None, False),
        "population": (("--population",), None, None, False),
        "list_scenarios": (("--list-scenarios",), None, None, False),
        **_FORMAT,
    },
    "agents": {"action": ((), None, ("list",), True), **_FORMAT},
    "negotiate": {
        "distribution": (("--distribution",), None, ("u1", "u2"), False),
        "num_choices": (("--num-choices",), "int", None, False),
        "trials": (("--trials",), "int", None, False),
        "seed": (("--seed",), "int", None, False),
        **_FORMAT,
    },
    "serve": {
        "host": (("--host",), None, None, False),
        "port": (("--port",), "int", None, False),
        "max_batch": (("--max-batch",), "int", None, False),
        "cache_entries": (("--cache-entries",), "int", None, False),
        "session_cache_limit": (("--session-cache-limit",), "int", None, False),
        "request_log": (("--request-log",), None, None, False),
        "workers": (("--workers",), "int", None, False),
        "state_dir": (("--state-dir",), None, None, False),
    },
    "sweep": {
        "spec": (("--spec",), None, None, False),
        "smoke": (("--smoke",), None, None, False),
        "jobs": (("--jobs",), "int", None, False),
        "out": (("--out",), None, None, False),
        "cache_dir": (("--cache-dir",), None, None, False),
        "force": (("--force",), None, None, False),
        "list_shards": (("--list",), None, None, False),
        **_FORMAT,
    },
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def _actions(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def _row(action: argparse.Action) -> tuple:
    kind = getattr(action.type, "__name__", action.type)
    choices = tuple(action.choices) if action.choices is not None else None
    return tuple(action.option_strings), kind, choices, action.required


def test_the_surface_matches_the_pinned_table():
    surface = {
        name: {a.dest: _row(a) for a in _actions(parser)}
        for name, parser in _subparsers().items()
    }
    assert surface == PINNED


@pytest.mark.parametrize("name", sorted(WORKFLOWS))
def test_every_request_field_is_exactly_one_flag(name):
    actions = _actions(_subparsers()[name])
    for field in dataclasses.fields(WORKFLOWS[name].request_type):
        matching = [a for a in actions if a.dest == field.name]
        if WORKFLOWS[name].request_type is TopologyRequest and field.name == "file_format":
            assert matching == []  # ``--format gml`` sets it
            continue
        assert len(matching) == 1, field.name
        assert matching[0].default == field.default, field.name


def test_every_serve_config_field_is_exactly_one_flag():
    actions = _actions(_subparsers()["serve"])
    assert len(actions) == len(dataclasses.fields(ServeConfig))
    for field in dataclasses.fields(ServeConfig):
        matching = [a for a in actions if a.dest == field.name]
        assert len(matching) == 1, field.name
        assert matching[0].default == field.default, field.name


@pytest.mark.parametrize("name", sorted(PINNED))
def test_help_renders_for_every_subcommand(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([name, "--help"])
    assert exit_info.value.code == 0
    assert f"usage: repro {name}" in capsys.readouterr().out


def test_help_renders_for_the_experiments_runner_alias(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_experiments_command(["--help"])
    assert exit_info.value.code == 0
    assert "usage: repro-experiments" in capsys.readouterr().out

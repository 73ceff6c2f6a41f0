"""The one CLI adapter: argparse surface → typed requests → rendering.

Every command-line entry point of the reproduction routes through this
module — ``python -m repro.cli`` (the ``repro`` console script) and
``python -m repro.experiments.runner`` (the historical experiments
alias) share the same argument definitions, the same typed-request
validation, the same :class:`~repro.api.session.Session` execution, and
the same renderers.

The flags of every :data:`~repro.api.requests.WORKFLOWS` command are
derived from its request dataclass: each field is one ``--field-name``
flag whose type, default and help text are the field's.  One generic
runner builds the request (construction validates; a
:class:`~repro.errors.ValidationError` becomes the familiar
``repro <command>: error: …`` message with exit code 2), calls the
session workflow, and prints the result — ``--format text`` renders the
historical byte-identical report, ``--format json`` prints the
schema-versioned envelope as :func:`~repro.envelope.canonical_text`.

Only CLI-only behaviour is spelled out by hand: ``--format`` (whose
``gml`` choice sets ``repro topology``'s file format), topology's
required positional ``output``, ``simulate --list-scenarios`` and its
text-mode trace ordering, ``agents list``, sweep's required
``--spec | --smoke`` group and ``--list`` spelling, and the ``serve``
flags (deriving them from ``ServeConfig`` would load the server stack
on every ``import repro.cli``).

Nothing else in the codebase parses CLI arguments or formats CLI
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from dataclasses import fields, replace
from typing import get_args, get_type_hints

from repro.api.requests import NEGOTIATE_DISTRIBUTIONS, WORKFLOWS, Workflow
from repro.api.results import (
    AgentsListResult,
    DiversityResult,
    ExperimentsResult,
    GrcAllResult,
    NegotiateResult,
    ScenarioListResult,
    SimulateResult,
    SweepListResult,
    SweepResult,
    TopologyResult,
    render_agents_list_text,
    render_diversity_text,
    render_experiments_text,
    render_grc_all_text,
    render_negotiate_text,
    render_scenario_list_text,
    render_simulate_text,
    render_sweep_list_text,
    render_sweep_text,
    render_topology_text,
)
from repro.api.session import Session
from repro.envelope import canonical_text
from repro.errors import ReproError
from repro.simulation.scenarios import SCENARIOS

__all__ = ["build_parser", "dispatch", "main", "run_experiments_command"]

#: Subcommand → its ``repro --help`` line, in listing order.
_COMMANDS = {
    "topology": "generate a synthetic AS topology in CAIDA as-rel format",
    "diversity": "run the §VI path-diversity analysis",
    "grc-all": "run the all-sources GRC pass (blocked memory, optional sharding)",
    "experiments": "run the full experiment harness (every figure)",
    "simulate": "run a discrete-event simulation scenario",
    "agents": "inspect the heterogeneous-agent behavior registry",
    "negotiate": "run a batched BOSCO negotiation pass",
    "serve": "serve the session workflows over HTTP; queued negotiations share a batch",
    "sweep": "run a sharded, resumable parameter sweep",
}

#: Request fields whose values argparse restricts to a fixed set.
_CHOICES = {
    "scenario": sorted(SCENARIOS),
    "distribution": sorted(NEGOTIATE_DISTRIBUTIONS),
}

#: ``repro serve`` flags as (field, type, default, help).  Spelled out
#: rather than derived from ``ServeConfig`` so ``import repro.cli`` never
#: loads the server stack; the CLI surface test holds them to its fields.
_SERVE_FLAGS = (
    ("host", None, "127.0.0.1", "interface to bind"),
    ("port", int, 8000, "TCP port to bind; 0 picks an ephemeral port and prints it"),
    (
        "max_batch",
        int,
        32,
        "most negotiation requests one engine batch may hold; 1 solves each alone",
    ),
    (
        "cache_entries",
        int,
        256,
        "LRU bound of the fingerprint-keyed result cache; 0 disables caching",
    ),
    (
        "session_cache_limit",
        int,
        None,
        "LRU bound for each of every worker's warm session caches (default: unbounded)",
    ),
    ("request_log", None, None, "append a structured JSONL record per request to this file"),
    (
        "workers",
        int,
        1,
        "worker processes accepting on one shared socket; 2+ runs the pre-fork "
        "supervisor with crash restarts",
    ),
    (
        "state_dir",
        None,
        None,
        "directory for the cross-worker shared state (result cache, job queue, "
        "stats board); default: a private tempdir",
    ),
)

#: Result type → its ``--format text`` renderer.
_RENDERERS = {
    TopologyResult: render_topology_text,
    DiversityResult: render_diversity_text,
    GrcAllResult: render_grc_all_text,
    ExperimentsResult: render_experiments_text,
    SimulateResult: render_simulate_text,
    ScenarioListResult: render_scenario_list_text,
    AgentsListResult: render_agents_list_text,
    NegotiateResult: render_negotiate_text,
    SweepResult: render_sweep_text,
    SweepListResult: render_sweep_list_text,
}


def _help(text: str, default) -> str:
    """Help text naming a real default (``None`` defaults explain themselves)."""
    if default is None or isinstance(default, bool):
        return text
    return f"{text} (default: %(default)s)"


def _field_options(hint) -> dict:
    """argparse options for a field annotation (``X | None`` is ``X``)."""
    kind = next((t for t in get_args(hint) if t is not type(None)), hint)
    if kind is bool:
        return {"action": "store_true"}
    return {"type": kind if kind in (int, float) else None}


def _add_request_arguments(parser: argparse.ArgumentParser, workflow: Workflow) -> None:
    """One flag per request field, typed, defaulted and documented by the field."""
    hints = get_type_hints(workflow.request_type)
    source = None
    if workflow.name == "sweep":
        source = parser.add_mutually_exclusive_group(required=True)
    for field in fields(workflow.request_type):
        if field.name == "file_format":  # set by topology's ``--format gml``
            continue
        doc = _help(field.metadata["doc"], field.default)
        if workflow.name == "topology" and field.name == "output":
            parser.add_argument("output", help=doc)  # required on the CLI only
            continue
        options = _field_options(hints[field.name])
        if field.name in _CHOICES:
            options["choices"] = _CHOICES[field.name]
        container = source if field.name in ("spec", "smoke") else parser
        container.add_argument(
            "--list" if field.name == "list_shards" else "--" + field.name.replace("_", "-"),
            dest=field.name,
            default=field.default,
            help=doc,
            **options,
        )


def _add_command_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """The derived request flags plus each command's CLI-only arguments."""
    if name in WORKFLOWS:
        _add_request_arguments(parser, WORKFLOWS[name])
    if name == "serve":  # prints no result, so takes no --format
        for dest, kind, default, text in _SERVE_FLAGS:
            parser.add_argument(
                "--" + dest.replace("_", "-"),
                dest=dest,
                type=kind,
                default=default,
                help=_help(text, default),
            )
        return
    if name == "simulate":
        parser.add_argument(
            "--list-scenarios",
            action="store_true",
            help="print the scenario catalog with parameter schemas and exit",
        )
    elif name == "agents":
        parser.add_argument(
            "action",
            choices=("list",),
            help="'list' prints every registered behavior profile with its "
            "parameter schema",
        )
    if name == "topology":
        parser.add_argument(
            "--format",
            choices=("text", "json", "gml"),
            default="text",
            help="text/json select the report format (the file is written as "
            "CAIDA as-rel); gml writes the file in GML and prints the text "
            "report (default: text)",
        )
    else:
        parser.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format: the classic text report or a schema-versioned "
            "JSON envelope (default: text)",
        )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Enabling Novel Interconnection Agreements "
        "with Path-Aware Networking Architectures' (DSN 2021)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, summary in _COMMANDS.items():
        _add_command_arguments(subparsers.add_parser(name, help=summary), name)
    return parser


def _emit(result, output_format: str) -> None:
    """Print a result in the selected format."""
    if output_format == "json":
        print(canonical_text(result.to_json_dict()), end="")
    else:
        print(_RENDERERS[type(result)](result))


def _request(args: argparse.Namespace):
    """The typed request of a parsed workflow command (validated)."""
    request_type = WORKFLOWS[args.command].request_type
    values = {f.name: getattr(args, f.name) for f in fields(request_type) if f.name in args}
    if args.format == "gml":  # topology: write GML, print the text report
        values["file_format"], args.format = "gml", "text"
    return request_type(**values)


def _sweep_progress(message: str, completed: int, total: int) -> None:
    print(f"sweep: {message}", file=sys.stderr)


def _run_workflow(args: argparse.Namespace) -> int:
    options = {"progress": _sweep_progress} if args.command == "sweep" else {}
    method = getattr(Session(), WORKFLOWS[args.command].method)
    _emit(method(_request(args), **options), args.format)
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    if args.list_scenarios:
        _emit(ScenarioListResult.build(), args.format)
        return 0
    if args.format == "json":
        # The session writes the trace before the envelope is printed,
        # so an emitted envelope's trace_out is always a written file.
        return _run_workflow(args)
    # Text mode preserves the historical ordering: the summary prints
    # even when the trace file turns out to be unwritable.
    result = Session().simulate(replace(_request(args), trace_out=None))
    _emit(result, "text")
    if args.trace_out:
        result.write_trace(args.trace_out)  # OutputError -> exit 1 via dispatch
        print(f"trace written to {args.trace_out} ({result.num_trace_records} records)")
    return 0


def _run_agents(args: argparse.Namespace) -> int:
    # Only 'list' exists today; argparse choices already rejected the rest.
    _emit(AgentsListResult.build(), args.format)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    # Imported lazily so plain CLI commands never pay for (or depend on)
    # the server stack.
    from repro.serve import ServeConfig, run_server

    return run_server(ServeConfig(**{dest: getattr(args, dest) for dest, *_ in _SERVE_FLAGS}))


#: The commands with their own runner; every other is a request workflow.
_HANDLERS = {"simulate": _run_simulate, "agents": _run_agents, "serve": _run_serve}


def dispatch(args: argparse.Namespace) -> int:
    """Run one parsed command and return the process exit code.

    The :class:`~repro.errors.ReproError` taxonomy maps to stable exit
    codes here (validation → 2, delivery failures → 1), with the same
    ``repro <command>: error: …`` stderr line the CLI always printed.
    A closed stdout (``repro … | head``) exits 1 without a traceback.
    """
    try:
        code = _HANDLERS.get(args.command, _run_workflow)(args)
        sys.stdout.flush()
        return code
    except ReproError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return error.exit_code
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the flush at exit must not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    return dispatch(build_parser().parse_args(argv))


def run_experiments_command(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.experiments.runner``.

    The historical standalone runner is an alias of ``repro
    experiments``: same flags, same typed-request checks, same session
    execution, same output — only the program name differs.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Run every experiment of the paper's evaluation and print "
        "a combined report (alias of 'repro experiments').",
    )
    _add_command_arguments(parser, "experiments")
    args = parser.parse_args(argv)
    args.command = "experiments"
    return dispatch(args)

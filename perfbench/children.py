"""Child processes of the benchmark: the program under test, in-process.

``python3 perfbench/children.py [--spans FILE] <mode> ...`` runs one of:

``figures``
    ``repro experiments`` through :func:`repro.cli.main`, traced.  The
    untraced figures runs are plain ``python3 -m repro.cli`` processes;
    this mode exists to record spans around the same calls.
``diversity``
    A warm :class:`repro.api.Session` answering ``diversity`` requests
    read as JSON lines from stdin, one JSON line of replies per command.
``replay``
    The serve-mixed request sequence replayed in order through
    ``build_workflow_request`` → ``Session.<workflow>`` →
    ``serialize_envelope``: the reference bytes every served body must
    equal.

With ``--spans FILE`` a mode runs traced: the layers' public functions
are wrapped in span-recording wrappers before the first call, and the
spans and counts are written to ``FILE`` when the run ends.  Without it
nothing is wrapped.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import sys
import time

from spans import Tracer

_NO_SPAN = contextlib.nullcontext()


def _no_span(name: str):
    return _NO_SPAN


def _patch(tracer: Tracer, target: str, attribute: str, name: str, **options) -> None:
    """Replace ``target.attribute`` with a span-recording wrapper."""
    owner: object = importlib.import_module(target.rsplit(":", 1)[0])
    if ":" in target:
        owner = getattr(owner, target.rsplit(":", 1)[1])
    setattr(owner, attribute, tracer.wrap(getattr(owner, attribute), name, **options))


def _consumed(tracer: Tracer, name: str, fn, count: str):
    """Wrap a generator function so its work happens inside the span."""

    def run(*args, **kwargs):
        with tracer.span(name):
            items = list(fn(*args, **kwargs))
        tracer.add(count, len(items))
        return iter(items)

    return run


def _count_graph(tracer: Tracer, graph) -> None:
    tracer.add("topology.ases", len(graph))
    tracer.add("topology.links", graph.num_transit_links() + graph.num_peering_links())


def _count_index(tracer: Tracer, index, args, kwargs) -> None:
    tracer.add(
        "paths.ma_index_paths",
        sum(map(len, index.direct.values())) + sum(map(len, index.indirect.values())),
    )


def _records(count: str):
    def add(tracer: Tracer, result, args, kwargs) -> None:
        tracer.add(count, len(result.records))

    return add


def _wrap_shared_layers(tracer: Tracer) -> None:
    """Spans on the query methods both path-diversity workloads reach."""
    for method in ("paths", "destinations"):
        _patch(tracer, "repro.core.path_engine:PathEngine", method, "core.grc_query")
    for method in ("direct_paths", "all_paths", "top_n_paths"):
        _patch(tracer, "repro.paths.ma_paths:MAPathIndex", method, "paths.ma_query")


def wrap_figures(tracer: Tracer) -> None:
    """Spans at every layer boundary ``repro experiments`` crosses."""
    import repro.experiments.context as context

    _patch(
        tracer,
        "repro.experiments.context",
        "generate_topology",
        "topology.generate",
        count=lambda t, result, a, k: _count_graph(t, result.graph),
    )
    _patch(tracer, "repro.experiments.context", "compile_topology", "core.compile")
    _patch(tracer, "repro.experiments.context", "path_engine_for", "core.compile")
    context.enumerate_mutuality_agreements = _consumed(
        tracer, "agreements.enumerate", context.enumerate_mutuality_agreements,
        "agreements.count",
    )
    _patch(
        tracer,
        "repro.experiments.context",
        "build_ma_path_index",
        "paths.ma_index",
        count=_count_index,
    )
    for module in ("repro.experiments.fig3_paths", "repro.experiments.fig4_destinations"):
        _patch(
            tracer,
            module,
            "analyze_path_diversity",
            "paths.diversity",
            count=_records("paths.diversity_ases"),
        )
    _patch(
        tracer,
        "repro.topology.geography:SyntheticGeographyGenerator",
        "embed",
        "topology.embed",
    )
    _patch(
        tracer,
        "repro.experiments.fig5_geodistance",
        "analyze_geodistance",
        "paths.geodistance",
        count=_records("paths.geodistance_pairs"),
    )
    _patch(
        tracer,
        "repro.experiments.fig6_bandwidth",
        "degree_gravity_capacities",
        "topology.capacities",
    )
    _patch(
        tracer,
        "repro.experiments.fig6_bandwidth",
        "analyze_bandwidth",
        "paths.bandwidth",
        count=_records("paths.bandwidth_pairs"),
    )
    _patch(
        tracer,
        "repro.experiments.runner",
        "run_fig2",
        "bargaining.fig2",
        count=lambda t, result, a, k: t.add(
            "bargaining.fig2_trials", len(result.rows) * a[0].trials
        ),
    )
    _patch(tracer, "repro.api.adapter", "_emit", "api.encode")
    _wrap_shared_layers(tracer)


def wrap_diversity(tracer: Tracer) -> None:
    """Spans at every layer boundary ``Session.diversity`` crosses."""
    import repro.api.session as session

    _patch(
        tracer,
        "repro.api.session",
        "load_as_rel",
        "topology.load",
        count=lambda t, graph, a, k: _count_graph(t, graph),
    )
    _patch(tracer, "repro.api.session", "path_engine_for", "core.compile")
    session.enumerate_mutuality_agreements = _consumed(
        tracer, "agreements.enumerate", session.enumerate_mutuality_agreements,
        "agreements.count",
    )
    _patch(
        tracer, "repro.api.session", "build_ma_path_index", "paths.ma_index", count=_count_index
    )
    _patch(
        tracer,
        "repro.api.session",
        "analyze_path_diversity",
        "paths.diversity",
        count=_records("paths.diversity_ases"),
    )
    _patch(tracer, "repro.api.results:DiversityResult", "to_json_dict", "api.encode")
    _wrap_shared_layers(tracer)


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
class _Run:
    """The traced (or untraced) lifetime of one child process."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.spans_path = args.spans
        self.tracer = Tracer(f"{args.mode}-{os.getpid()}") if args.spans else None
        self.span = self.tracer.span if self.tracer else _no_span
        if self.tracer:
            self.tracer.watch_gc()
            self._root = self.tracer.open("bench.total")

    def finish(self) -> None:
        if self.tracer:
            self.tracer.close(self._root)
            self.tracer.unwatch_gc()
            self.tracer.write(self.spans_path)


def figures(args: argparse.Namespace) -> int:
    run = _Run(args)
    with run.span("runtime.import"):
        import repro.cli
    if run.tracer:
        wrap_figures(run.tracer)
    code = repro.cli.main(args.cli)
    sys.stdout.flush()
    run.finish()
    return code


def diversity(args: argparse.Namespace) -> int:
    run = _Run(args)
    with run.span("runtime.import"):
        from repro.api import DiversityRequest, Session
    if run.tracer:
        wrap_diversity(run.tracer)
    session = Session()
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "exit":
            break
        replies = []
        for fields in command["requests"]:
            started = time.perf_counter()
            result = session.diversity(DiversityRequest(topology=args.topology, **fields))
            latency = time.perf_counter() - started
            replies.append({"latency_s": latency, "result": result.to_json_dict()})
        print(json.dumps({"replies": replies}), flush=True)
    session.close()
    run.finish()
    return 0


def replay(args: argparse.Namespace) -> int:
    with open(args.requests, encoding="utf-8") as stream:
        requests = json.load(stream)
    run = _Run(args)
    span = run.span
    with span("runtime.import"):
        from repro.api.requests import build_workflow_request
        from repro.api.session import Session
        from repro.serve.service import serialize_envelope
    session = Session()
    replies = []
    for item in requests:
        started = time.perf_counter()
        with span("api.decode"):
            request = build_workflow_request(item["workflow"], item["payload"])
        if item["workflow"] == "negotiate":
            with span("bargaining.negotiate"):
                result = session.negotiate(request)
            if run.tracer:
                run.tracer.add("bargaining.negotiate_trials", request.trials)
        else:
            with span("simulation.run"):
                result = session.simulate(request)
            if run.tracer:
                run.tracer.add("simulation.events", result.events_processed)
        with span("api.encode"):
            body = serialize_envelope(result.to_json_dict())
        if run.tracer:
            run.tracer.add("api.envelope_bytes", len(body))
        replies.append(
            {
                "sha256": hashlib.sha256(body).hexdigest(),
                "seconds": time.perf_counter() - started,
            }
        )
    session.close()
    run.finish()
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(replies, stream)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/children.py")
    parser.add_argument("--spans", default=None, help="trace; write spans here")
    modes = parser.add_subparsers(dest="mode", required=True)
    mode = modes.add_parser("figures")
    mode.add_argument("cli", nargs=argparse.REMAINDER, help="repro CLI arguments")
    mode = modes.add_parser("diversity")
    mode.add_argument("--topology", required=True)
    mode = modes.add_parser("replay")
    mode.add_argument("--requests", required=True)
    mode.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return {"figures": figures, "diversity": diversity, "replay": replay}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())

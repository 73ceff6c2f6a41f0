#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Workloads (``--workload all`` runs each in turn):

``figures``
    Cold ``repro experiments --format json`` processes at the reduced
    default scale: the paper's whole evaluation as a user runs it.
``serve-mixed``
    A fresh ``repro serve --workers 1`` child under a closed loop of one
    keep-alive connection sending the seeded negotiate/repeat/simulate
    mix.
``diversity-warm``
    One child holding a warm ``repro.api.Session`` that answers a fixed
    sequence of ``diversity`` requests on one topology file.

Every program under test is a fresh child process, so imports, caches
and peak memory belong to the run.  ``--trace 0`` measures untraced
and reports the end-to-end metrics.  ``--trace 1`` also runs a traced
child that makes the same calls in the same order with a span around
each layer's public functions, and reports per-layer self times and
counts.  Each run prints every metric as ``name value unit``, writes a
JSON document with the metrics, spans, host facts and errors under
``.perfbench/results/``, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Self-tests of the harness: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import hostinfo  # noqa: E402
import traffic  # noqa: E402
from quantiles import InsufficientSamples, median, percentile  # noqa: E402
from spans import Span, layer_totals, load_spans, self_times  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PYTHON = sys.executable or "python3"

WORKLOADS = ("figures", "serve-mixed", "diversity-warm")

#: ``repro experiments --seed`` of the figures workload.  The generated
#: topology, and with it the run time and peak memory, changes with this
#: seed by up to a fifth, so it is fixed; its output digest is recorded.
FIGURES_SEED = 7
#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = {"figures": 5, "serve-mixed": 5, "diversity-warm": 2}
#: Fewest diversity-warm passes per run.
MIN_PASSES = 2
#: Completions per ``run_s`` unit of serve-mixed.
SERVE_UNIT = 10
#: Keep-alive connections of the serve-mixed closed loop.  One: the
#: single-process server computes on one thread, and a second connection
#: only adds runnable threads on a 2-core host, whose scheduling then
#: set the latencies more than the program did.
SERVE_CONNECTIONS = 1
#: Seconds of serve-mixed traffic before timing starts; their requests
#: are still checked.
SERVE_WARMUP_S = 2.0
#: Any child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics: name → unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name → unit.  A layer a workload does not reach
#: reads 0.  ``<span>_s`` is the summed self time of that span,
#: ``<span>_calls`` the calls that entered it from another span.
PER_LAYER = {
    "runtime.import_s": "s",
    "runtime.gc_s": "s",
    "runtime.gc_gen2": "count",
    "topology.generate_s": "s",
    "topology.load_s": "s",
    "topology.embed_s": "s",
    "topology.capacities_s": "s",
    "topology.ases": "count",
    "topology.links": "count",
    "core.compile_s": "s",
    "core.grc_query_s": "s",
    "core.grc_query_calls": "count",
    "agreements.enumerate_s": "s",
    "agreements.count": "count",
    "paths.ma_index_s": "s",
    "paths.ma_index_paths": "count",
    "paths.ma_query_s": "s",
    "paths.ma_query_calls": "count",
    "paths.diversity_s": "s",
    "paths.diversity_ases": "count",
    "paths.geodistance_s": "s",
    "paths.geodistance_pairs": "count",
    "paths.bandwidth_s": "s",
    "paths.bandwidth_pairs": "count",
    "bargaining.fig2_s": "s",
    "bargaining.fig2_trials": "count",
    "bargaining.negotiate_s": "s",
    "bargaining.negotiate_trials": "count",
    "simulation.run_s": "s",
    "simulation.events": "count",
    "api.decode_s": "s",
    "api.encode_s": "s",
    "api.envelope_bytes": "bytes",
    "serve.server_latency_p50_ms": "ms",
    "serve.transport_p50_ms": "ms",
    "serve.queue_depth_mean": "count",
    "serve.hit_latency_p50_ms": "ms",
    "serve.hit_latency_mean_ms": "ms",
    "serve.cache_hit_ratio": "fraction",
    "serve.coalesced_share": "fraction",
    "serve.batch_size_mean": "count",
    "serve.store_writes": "count",
    "bench.traced_total_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_pct": "%",
}

#: Reported with the end-to-end metrics where the workload supports
#: them, but not gated: they exist on one workload only, or read 0.
EXTRA = {
    "latency_p95_ms": "ms",
    "ases_per_s": "1/s",
    "error_rate": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it never started)."""


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Everything one workload run measured."""

    workload: str
    end_to_end: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    #: What failed (a request, a process, a pass) → why; one entry each.
    failures: dict[str, str] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    host: dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str, why: str) -> None:
        self.failures.setdefault(what, why)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # Whatever the program puts in temporary files stays in the checkout.
    env["TMPDIR"] = str(WORK / "tmp")
    return env


@dataclass
class Finished:
    wall_s: float
    exit_code: int
    peak_rss_mb: float


def reap(proc: subprocess.Popen, started: float, timeout: float = CHILD_TIMEOUT_S) -> Finished:
    """Wait for ``proc`` (killing it after ``timeout``) and read its rusage."""
    lock = threading.Lock()
    reaped = [False]

    def kill() -> None:
        with lock:
            if not reaped[0]:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        with lock:
            reaped[0] = True
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def run_child(cmd: list[str], *, stdout=subprocess.DEVNULL) -> Finished:
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=stdout
    )
    return reap(proc, started)


def child_script(*args: str) -> list[str]:
    return [PYTHON, str(BENCH / "children.py"), *args]


def validate_files(paths: list[Path]) -> set[str]:
    """Run ``python -m repro.api.validate``; return the files it failed."""
    if not paths:
        return set()
    result = subprocess.run(
        [PYTHON, "-m", "repro.api.validate", *map(str, paths)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    names = [str(p) for p in paths]
    failed = {
        name
        for line in result.stdout.splitlines()
        if line.startswith("FAIL ")
        for name in names
        if line[len("FAIL "):].startswith(name + ":")
    }
    if result.returncode != 0 and not failed:
        failed = {str(p) for p in paths}
    return failed


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_digests() -> dict[str, str]:
    with open(BENCH / "expected.json", encoding="utf-8") as stream:
        return json.load(stream)


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
def boundary_calls(spans: list[Span], name: str) -> int:
    """Spans named ``name`` whose parent is not itself a ``name`` span."""
    return sum(
        1
        for span in spans
        if span.name == name and (span.parent is None or spans[span.parent].name != name)
    )


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    totals = layer_totals(spans)
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        if name.startswith(("serve.", "bench.")):
            continue
        if name.endswith("_s"):
            metrics[name] = totals.get(name[:-2], {}).get("self_s", 0.0)
        elif name.endswith("_calls"):
            metrics[name] = boundary_calls(spans, name[: -len("_calls")])
        else:
            metrics[name] = counts.get(name, 0)
    root = [i for i, span in enumerate(spans) if span.parent is None and span.name == "bench.total"]
    own = self_times(spans)
    metrics["bench.traced_total_s"] = sum(spans[i].duration for i in root)
    metrics["bench.unattributed_s"] = sum(own[i] for i in root)
    return metrics


def attach_trace(outcome: Outcome, spans_path: Path, untraced_s: float, traced_s: float) -> None:
    spans, counts = load_spans(str(spans_path))
    outcome.spans, outcome.counts = spans, counts
    outcome.per_layer.update(layer_metrics(spans, counts))
    outcome.per_layer["bench.trace_overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0
    outcome.details["self_time_sum_s"] = sum(self_times(spans))


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
def figures_command() -> list[str]:
    return ["experiments", "--seed", str(FIGURES_SEED), "--format", "json"]


def run_figures(args: argparse.Namespace, work: Path, outcome: Outcome) -> None:
    setups = 1 if args.trace else SETUPS["figures"]
    imports = [run_child([PYTHON, "-c", "import repro.cli"]) for _ in range(setups)]
    if any(f.exit_code != 0 for f in imports):
        raise BenchError("import repro.cli failed")
    digest = expected_digests()[f"figures_seed{FIGURES_SEED}"]

    outputs: list[Path] = []
    processes: list[Finished] = []
    phase_start = time.perf_counter()
    # Start processes until --seconds have passed; at least one.
    while not processes or time.perf_counter() - phase_start < args.seconds:
        out = work / f"figures-{len(processes)}.json"
        with open(out, "wb") as stream:
            processes.append(
                run_child([PYTHON, "-m", "repro.cli", *figures_command()], stdout=stream)
            )
        outputs.append(out)
        if args.trace:
            break
    phase_wall = time.perf_counter() - phase_start

    outcome.attempted = len(processes)
    invalid = validate_files(outputs)
    for out, finished in zip(outputs, processes):
        data = out.read_bytes()
        if finished.exit_code != 0:
            outcome.fail(out.name, f"exit code {finished.exit_code}")
        elif str(out) in invalid:
            outcome.fail(out.name, "envelope failed validation")
        elif sha256(data) != digest:
            outcome.fail(out.name, f"sha256 {sha256(data)} != recorded {digest}")
    walls = [f.wall_s for f in processes]
    outcome.end_to_end.update(
        setup_s=median([f.wall_s for f in imports]),
        run_s=median(walls),
        throughput_rps=len(processes) / phase_wall,
        latency_p50_ms=median(walls) * 1000.0,
        peak_rss_mb=median([f.peak_rss_mb for f in processes]),
    )
    outcome.details.update(process_walls_s=walls, output_sha256=sha256(outputs[0].read_bytes()))

    if not args.trace:
        return
    spans_path = work / "figures.spans.json"
    traced_out = work / "figures-traced.json"
    with open(traced_out, "wb") as stream:
        traced = run_child(
            child_script("--spans", str(spans_path), "figures", *figures_command()),
            stdout=stream,
        )
    outcome.attempted += 1
    if traced.exit_code != 0:
        outcome.fail("traced", f"exit code {traced.exit_code}")
        return
    if traced_out.read_bytes() != outputs[0].read_bytes():
        outcome.fail("traced", "output differs from the untraced output")
    attach_trace(outcome, spans_path, processes[0].wall_s, traced.wall_s)
    outcome.per_layer["api.envelope_bytes"] = len(traced_out.read_bytes())


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


class Server:
    """One ``repro serve --workers 1`` child with its own state."""

    def __init__(self, work: Path, name: str) -> None:
        self.state_dir = work / f"{name}-state"
        self.log_path = work / f"{name}-requests.jsonl"
        self.out_path = work / f"{name}-stdout.txt"
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "127.0.0.1", 0

    def start(self) -> float:
        """Spawn; return the seconds until ``/v1/health`` first answered 200."""
        started = time.perf_counter()
        with open(self.out_path, "wb") as stream:
            self.proc = subprocess.Popen(
                [
                    PYTHON, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1",
                    "--state-dir", str(self.state_dir), "--request-log", str(self.log_path),
                ],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=stream,
                stderr=subprocess.STDOUT,
            )
        deadline = started + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"repro serve exited with code {self.proc.returncode}")
            if not self.port:
                match = _LISTENING.search(self.out_path.read_text(errors="replace"))
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
            if self.port:
                try:
                    status, _ = traffic.fetch(self.host, self.port, "/v1/health")
                except OSError:
                    status = 0
                if status == 200:
                    return time.perf_counter() - started
            time.sleep(0.002)
        self.proc.kill()
        self.stop()
        raise BenchError("repro serve did not become healthy within 60 s")

    def stop(self) -> Finished:
        assert self.proc is not None
        if self.proc.returncode is None:
            with_signal = time.perf_counter()
            self.proc.send_signal(signal.SIGTERM)
            return reap(self.proc, with_signal, 60.0)
        return Finished(0.0, self.proc.returncode, 0.0)


def replay(
    work: Path, name: str, items: list[traffic.ServeRequest], *, spans: Path | None = None
) -> list[dict[str, Any]]:
    """Replay ``items`` through a fresh Session; one sha256 and time each."""
    requests = work / f"{name}.requests.json"
    out = work / f"{name}.replies.json"
    requests.write_text(
        json.dumps([{"workflow": r.workflow, "payload": r.payload} for r in items])
    )
    prefix = ["--spans", str(spans)] if spans else []
    finished = run_child(
        child_script(*prefix, "replay", "--requests", str(requests), "--out", str(out))
    )
    if finished.exit_code != 0:
        raise BenchError(f"serve replay {name} exited with code {finished.exit_code}")
    return json.loads(out.read_text())


def check_against_replay(
    outcome: Outcome, by_index: dict[int, traffic.Exchange], items, replies
) -> None:
    """Fail every served body that differs from the replayed Session bytes."""
    for request, reply in zip(items, replies):
        exchange = by_index.get(request.index)
        if exchange is None or exchange.status != 200:
            continue
        if sha256(exchange.body) != reply["sha256"]:
            outcome.fail(f"request {request.index}", "served bytes differ from Session bytes")


def check_exchanges(outcome: Outcome, exchanges: list[traffic.Exchange]) -> list[traffic.Exchange]:
    """Fail every exchange that errored, was not a 200, or is a repeat
    whose bytes differ from its original's; return the originals left to
    validate."""
    by_index = {e.request.index: e for e in exchanges}
    originals = []
    for exchange in exchanges:
        request = exchange.request
        if exchange.error is not None:
            outcome.fail(f"request {request.index}", exchange.error)
        elif exchange.status != 200:
            outcome.fail(f"request {request.index}", f"HTTP {exchange.status}")
        elif request.repeat_of is not None:
            original = by_index.get(request.repeat_of)
            if original is not None and original.status == 200 and exchange.body != original.body:
                outcome.fail(f"request {request.index}", "repeat bytes differ from the original")
        else:
            originals.append(exchange)
    return originals


def run_serve(args: argparse.Namespace, work: Path, outcome: Outcome) -> None:
    setups = 1 if args.trace else SETUPS["serve-mixed"]
    setup_times = []
    for k in range(setups - 1):
        server = Server(work, f"setup{k}")
        setup_times.append(server.start())
        server.stop()
    server = Server(work, "live")
    setup_times.append(server.start())
    seconds = SERVE_WARMUP_S + args.seconds
    sequence = traffic.serve_sequence(args.seed, count=int(200 * seconds) + 100)
    try:
        exchanges, start, end = traffic.run_closed_loop(
            server.host, server.port, sequence,
            connections=SERVE_CONNECTIONS, seconds=seconds,
        )
        status, stats_body = traffic.fetch(server.host, server.port, "/v1/stats")
    finally:
        finished = server.stop()
    if finished.exit_code != 0:
        outcome.fail("server", f"exit code {finished.exit_code} after SIGTERM")

    outcome.attempted = len(exchanges)
    by_index = {e.request.index: e for e in exchanges}
    bodies = work / "bodies"
    bodies.mkdir()
    written: dict[str, int] = {}
    for exchange in check_exchanges(outcome, exchanges):
        path = bodies / f"{exchange.request.index}.json"
        path.write_bytes(exchange.body)
        written[str(path)] = exchange.request.index
    for path in validate_files([Path(p) for p in written]):
        outcome.fail(f"request {written[path]}", "envelope failed validation")

    originals = [e.request for e in exchanges if e.request.repeat_of is None]
    if args.trace:
        spans_path = work / "replay.spans.json"
        traced_replies = replay(work, "traced", originals, spans=spans_path)
        check_against_replay(outcome, by_index, originals, traced_replies)
        prefix = originals[: max(50, len(originals) // 5)]
        plain_replies = replay(work, "untraced", prefix)
        check_against_replay(outcome, by_index, prefix, plain_replies)
        attach_trace(
            outcome, spans_path,
            sum(r["seconds"] for r in plain_replies),
            sum(r["seconds"] for r in traced_replies[: len(prefix)]),
        )
    else:
        simulates = [r for r in originals if r.workflow == "simulate"][:2]
        sample = sorted(set(originals[::20] + simulates), key=lambda r: r.index)
        replies = replay(work, "reference", sample)
        check_against_replay(outcome, by_index, sample, replies)

    timed = [e for e in exchanges if e.sent >= start + SERVE_WARMUP_S]
    timed_start = min(e.sent for e in timed)
    latencies = [e.latency_ms for e in timed if e.status == 200]
    received = sorted(e.received for e in timed)
    marks = [timed_start] + received[SERVE_UNIT - 1 :: SERVE_UNIT]
    blocks = [b - a for a, b in zip(marks, marks[1:])]
    outcome.end_to_end.update(
        setup_s=median(setup_times),
        run_s=median(blocks),
        throughput_rps=len(timed) / (end - timed_start),
        latency_p50_ms=median(latencies),
        peak_rss_mb=finished.peak_rss_mb,
    )
    try:
        outcome.extra["latency_p95_ms"] = percentile(latencies, 95)
    except InsufficientSamples as error:
        outcome.details["latency_p95_ms"] = str(error)
    outcome.details.update(setup_times_s=setup_times, blocks=len(blocks))

    if status != 200:
        outcome.fail("stats", f"/v1/stats answered HTTP {status}")
        return
    stats = json.loads(stats_body)
    cache, coalescing = stats["result_cache"], stats["coalescing"]
    records = [
        json.loads(line)
        for line in server.log_path.read_text().splitlines()
        if line.strip()
    ]
    served = [r for r in records if r.get("path") in ("/v1/negotiate", "/v1/simulate")]
    hits = [e.latency_ms for e in exchanges if e.expected_hit and e.status == 200]
    server_p50 = median([r["latency_ms"] for r in served]) if served else 0.0
    outcome.per_layer.update(
        {
            "serve.server_latency_p50_ms": server_p50,
            "serve.transport_p50_ms": (
                median([e.latency_ms for e in exchanges if e.status == 200]) - server_p50
            ),
            "serve.queue_depth_mean": (
                sum(r["queue_depth"] for r in served) / len(served) if served else 0.0
            ),
            "serve.hit_latency_p50_ms": median(hits) if hits else 0.0,
            "serve.hit_latency_mean_ms": sum(hits) / len(hits) if hits else 0.0,
            "serve.cache_hit_ratio": (
                (cache["hits"] + cache["disk_hits"]) / max(1, cache["hits"] + cache["misses"])
            ),
            "serve.coalesced_share": (
                coalescing["coalesced_requests"] / max(1, coalescing["requests"])
            ),
            "serve.batch_size_mean": coalescing["requests"] / max(1, coalescing["batches"]),
            "serve.store_writes": cache["store_writes"],
        }
    )


# ----------------------------------------------------------------------
# diversity-warm
# ----------------------------------------------------------------------
_WRITE_TOPOLOGY = (
    "import json, sys\n"
    "from repro.api import Session, TopologyRequest\n"
    "Session().topology(TopologyRequest(output=sys.argv[1], **json.loads(sys.argv[2])))\n"
)


class WarmSession:
    """The diversity child: a warm Session behind a JSON-lines pipe."""

    def __init__(self, topology: Path, spans: Path | None = None) -> None:
        prefix = ["--spans", str(spans)] if spans else []
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            child_script(*prefix, "diversity", "--topology", str(topology)),
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def call(self, requests: list[dict[str, int]]) -> list[dict[str, Any]]:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write(json.dumps({"op": "calls", "requests": requests}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.proc.kill()
            reap(self.proc, self.started)
            raise BenchError("the diversity child exited early")
        return json.loads(line)["replies"]

    def close(self) -> Finished:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
        self.proc.stdin.close()
        finished = reap(self.proc, self.started)
        self.proc.stdout.close()
        return finished


def run_diversity_child(
    outcome: Outcome, topology: Path, seed: int, *, passes: int | None, seconds: float,
    spans: Path | None = None,
) -> dict[str, Any]:
    """Set up one warm child, run passes, ask the set-up request again."""
    child = WarmSession(topology, spans)
    setup = traffic.diversity_setup(seed)
    try:
        setup_reply = child.call([setup])[0]
        setup_s = time.perf_counter() - child.started
        runs, walls = [], []
        phase_start = time.perf_counter()
        while (passes is not None and len(runs) < passes) or (
            passes is None
            and (len(runs) < MIN_PASSES or time.perf_counter() - phase_start < seconds)
        ):
            began = time.perf_counter()
            runs.append(child.call(traffic.diversity_pass(seed, len(runs))))
            walls.append(time.perf_counter() - began)
        phase_wall = time.perf_counter() - phase_start
        warm_reply = child.call([setup])[0]
        total = time.perf_counter() - child.started
    finally:
        finished = child.close()
    if finished.exit_code != 0:
        outcome.fail(f"child {child.proc.pid}", f"exit code {finished.exit_code}")
    return {
        "setup_s": setup_s, "setup_reply": setup_reply, "runs": runs, "walls": walls,
        "warm_reply": warm_reply, "phase_wall": phase_wall, "total": total,
        "finished": finished,
    }


def _results(child: dict[str, Any]) -> list[tuple[str, dict[str, Any]]]:
    """Every result a diversity child returned, named by when it came."""
    named = [("set-up", child["setup_reply"]["result"])]
    for p, replies in enumerate(child["runs"]):
        named += [(f"pass {p} request {i}", r["result"]) for i, r in enumerate(replies)]
    return named + [("warm set-up request", child["warm_reply"]["result"])]


def run_diversity(args: argparse.Namespace, work: Path, outcome: Outcome) -> None:
    topology = work / "diversity-topology.txt"
    made = subprocess.run(
        [PYTHON, "-c", _WRITE_TOPOLOGY, str(topology), json.dumps(traffic.DIVERSITY_TOPOLOGY)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    if made.returncode != 0:
        raise BenchError(f"writing the diversity topology failed ({made.returncode})")
    setups = 1 if args.trace else SETUPS["diversity-warm"]
    setup_times, cold_results = [], []
    for _ in range(setups - 1):
        child = WarmSession(topology)
        try:
            cold_results.append(child.call([traffic.diversity_setup(args.seed)])[0]["result"])
            setup_times.append(time.perf_counter() - child.started)
        finally:
            child.close()
    live = run_diversity_child(outcome, topology, args.seed, passes=None, seconds=args.seconds)
    setup_times.append(live["setup_s"])
    results = _results(live)
    outcome.attempted = len(cold_results) + len(results)
    for k, result in enumerate(cold_results):
        if result != live["setup_reply"]["result"]:
            outcome.fail(f"set-up {k}", "result differs from the live child's set-up")
    if live["warm_reply"]["result"] != live["setup_reply"]["result"]:
        outcome.fail("warm set-up request", "warm result differs from the cold one")
    envelopes = {}
    for i, (name, result) in enumerate(results):
        path = work / f"diversity-{i}.json"
        path.write_text(json.dumps(result))
        envelopes[str(path)] = name
    for path in validate_files([Path(p) for p in envelopes]):
        outcome.fail(envelopes[path], "envelope failed validation")

    runs = live["runs"]
    latencies = [reply["latency_s"] for replies in runs for reply in replies]
    outcome.end_to_end.update(
        setup_s=median(setup_times),
        run_s=median(live["walls"]),
        throughput_rps=len(latencies) / live["phase_wall"],
        latency_p50_ms=median(latencies) * 1000.0,
        peak_rss_mb=live["finished"].peak_rss_mb,
    )
    ases = sum(traffic.DIVERSITY_SAMPLE_SIZES) * len(runs)
    outcome.extra["ases_per_s"] = ases / live["phase_wall"]
    outcome.details.update(setup_times_s=setup_times, pass_walls_s=live["walls"])

    if not args.trace:
        return
    spans_path = work / "diversity.spans.json"
    traced = run_diversity_child(
        outcome, topology, args.seed, passes=len(runs), seconds=args.seconds, spans=spans_path
    )
    traced_results = _results(traced)
    outcome.attempted += len(traced_results)
    for (name, untraced), (_, result) in zip(results, traced_results):
        if result != untraced:
            outcome.fail(f"traced {name}", "result differs from the untraced result")
    attach_trace(outcome, spans_path, live["total"], traced["total"])
    outcome.per_layer["api.envelope_bytes"] = sum(
        len(json.dumps(result, indent=2, sort_keys=True)) + 1 for _, result in traced_results
    )


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
RUNNERS = {"figures": run_figures, "serve-mixed": run_serve, "diversity-warm": run_diversity}


def run_workload(name: str, args: argparse.Namespace) -> Outcome:
    outcome = Outcome(name)
    work = WORK / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    load_start = hostinfo.load_1m()
    try:
        RUNNERS[name](args, work, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.host = {
        **hostinfo.host_facts(), "load_1m_start": load_start, "load_1m_end": hostinfo.load_1m()
    }
    outcome.extra["error_rate"] = outcome.failed / max(1, outcome.attempted)
    if args.trace:
        for metric in PER_LAYER:
            outcome.per_layer.setdefault(metric, 0)
    return outcome


def metric_lines(outcome: Outcome, prefix: str = "") -> list[str]:
    lines = []
    for table, units in (
        (outcome.end_to_end, END_TO_END),
        (outcome.extra, EXTRA),
        (outcome.per_layer, PER_LAYER),
    ):
        for name, unit in units.items():
            if name in table:
                lines.append(f"{prefix}{name} {table[name]} {unit}")
    return lines


def reported(
    table: dict[str, float], units: dict[str, str], prefix: str = ""
) -> dict[str, dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for the metrics of ``units`` in ``table``."""
    return {
        f"{prefix}{name}": {"value": table[name], "unit": unit}
        for name, unit in units.items()
        if name in table
    }


def document(outcome: Outcome, args: argparse.Namespace) -> dict[str, Any]:
    return {
        "workload": outcome.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": outcome.host,
        "end_to_end": reported(outcome.end_to_end, END_TO_END),
        "extra": reported(outcome.extra, EXTRA),
        "per_layer": reported(outcome.per_layer, PER_LAYER),
        "counts": outcome.counts,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "details": outcome.details,
        "spans": [[s.name, s.start, s.end, s.parent, s.run_id] for s in outcome.spans],
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    for name in names:
        try:
            outcome = run_workload(name, args)
        except (BenchError, OSError, subprocess.SubprocessError, ValueError) as error:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
            return 1
        outcomes.append(outcome)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document(outcome, args), indent=1))
        prefix = f"{name}." if len(names) > 1 else ""
        print("\n".join(metric_lines(outcome, prefix)))
        for what, why in list(outcome.failures.items())[:20]:
            print(f"{prefix}failed: {what}: {why}")
        print(f"{prefix}document: {out}", flush=True)
    metrics: dict[str, dict[str, Any]] = {}
    for outcome in outcomes:
        table, units = (
            (outcome.per_layer, PER_LAYER) if args.trace else (outcome.end_to_end, END_TO_END)
        )
        prefix = f"{outcome.workload}." if len(names) > 1 else ""
        metrics.update(reported(table, units, prefix))
    failed = sum(o.failed for o in outcomes)
    summary = {
        "correct": failed == 0 and all(o.attempted > 0 for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import http.server
import itertools
import json
import threading
from pathlib import Path

import pytest

import run
import traffic
from quantiles import InsufficientSamples, median, percentile, samples_beyond
from spans import Span, Tracer, layer_totals, self_times, union_length


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "t")


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),  # sibling children of root ...
        _span("b", 5.0, 9.0, 0),
        _span("c", 2.0, 3.0, 1),  # ... and a grandchild nested in a
        _span("d", 6.0, 7.0, 2),
        _span("d", 6.5, 8.0, 2),  # overlapping siblings count once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 1.0, 1.0, 1.5])
    totals = layer_totals(spans)
    assert totals["d"] == {"self_s": pytest.approx(2.5), "calls": 2}
    # Spans recorded by one thread never overlap their siblings, and then
    # the self times add up to the root's duration.
    nested = spans[:5]
    assert sum(self_times(nested)) == pytest.approx(nested[0].duration)


def test_child_time_outside_the_parent_is_not_subtracted():
    spans = [_span("root", 0.0, 2.0), _span("late", 1.5, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_tracer_records_parents_counts_and_wrapped_calls():
    ticks = itertools.count()
    tracer = Tracer("run-1", clock=lambda: float(next(ticks)))

    def work(x):
        return [x] * x

    wrapped = tracer.wrap(work, "layer", count=lambda t, r, a, k: t.add("items", len(r)))
    with tracer.span("root"):
        assert wrapped(3) == [3, 3, 3]
        with tracer.span("inner"):
            wrapped(2)
    spans = tracer.spans()
    assert [(s.name, s.parent) for s in spans] == [
        ("root", None),
        ("layer", 0),
        ("inner", 0),
        ("layer", 2),
    ]
    assert {s.run_id for s in spans} == {"run-1"}
    assert tracer.counts["items"] == 5
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_boundary_calls_ignore_nested_calls_of_the_same_span():
    spans = [
        _span("root", 0, 10),
        _span("q", 1, 4, 0),
        _span("q", 2, 3, 1),  # e.g. all_paths calling direct_paths
        _span("q", 5, 6, 0),
    ]
    assert run.boundary_calls(spans, "q") == 2


def test_layer_metrics_account_for_the_traced_total():
    spans = [
        _span("bench.total", 0.0, 10.0),
        _span("paths.ma_index", 1.0, 5.0, 0),
        _span("runtime.gc", 2.0, 2.5, 1),
        _span("core.grc_query", 6.0, 7.0, 0),
    ]
    metrics = run.layer_metrics(spans, {"agreements.count": 4})
    assert metrics["paths.ma_index_s"] == pytest.approx(3.5)
    assert metrics["runtime.gc_s"] == pytest.approx(0.5)
    assert metrics["core.grc_query_calls"] == 1
    assert metrics["agreements.count"] == 4
    assert metrics["bench.traced_total_s"] == pytest.approx(10.0)
    layers = sum(
        value
        for name, value in metrics.items()
        if name.endswith("_s") and not name.startswith("bench.")
    )
    assert layers + metrics["bench.unattributed_s"] == pytest.approx(10.0)


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_p95_needs_ten_samples_beyond_it():
    assert samples_beyond(200, 95) == 10
    assert percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(InsufficientSamples):
        percentile(list(range(199)), 95)
    with pytest.raises(InsufficientSamples):
        percentile([], 95)


def test_median_needs_samples():
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(InsufficientSamples):
        median([])


# ----------------------------------------------------------------------
# Seed plumbing
# ----------------------------------------------------------------------
def test_same_seed_same_requests_other_seed_other_requests():
    assert traffic.serve_sequence(5, 60) == traffic.serve_sequence(5, 60)
    assert [r.payload for r in traffic.serve_sequence(5, 60)] == [
        r.payload for r in traffic.serve_sequence(5, 60)
    ]
    assert [r.payload for r in traffic.serve_sequence(5, 60)] != [
        r.payload for r in traffic.serve_sequence(6, 60)
    ]
    assert traffic.diversity_setup(5) == traffic.diversity_setup(5)
    assert traffic.diversity_setup(5) != traffic.diversity_setup(6)
    assert traffic.diversity_pass(5, 0) == traffic.diversity_pass(5, 0)
    assert traffic.diversity_pass(5, 0) != traffic.diversity_pass(6, 0)
    assert traffic.diversity_pass(5, 0) != traffic.diversity_pass(5, 1)
    assert [r["sample_size"] for r in traffic.diversity_pass(5, 3)] == [120, 180, 240, 300]


def test_serve_mix_per_block_and_repeats_point_back():
    sequence = traffic.serve_sequence(9, 100)
    for block in range(10):
        kinds = [
            "repeat" if r.repeat_of is not None else r.workflow
            for r in sequence[block * 10 : block * 10 + 10]
        ]
        assert kinds.count("negotiate") == 7
        assert kinds.count("repeat") == 2
        assert kinds.count("simulate") == 1
    for request in sequence:
        if request.repeat_of is not None:
            original = sequence[request.repeat_of]
            assert request.repeat_of <= request.index - 3
            assert original.repeat_of is None
            assert original.payload == request.payload
    seeds = [r.payload["seed"] for r in sequence if r.repeat_of is None]
    assert len(set(seeds)) == len(seeds)


# ----------------------------------------------------------------------
# Failed responses are counted
# ----------------------------------------------------------------------
class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Answers the serve mix: 500 on simulate, a per-seed body otherwise,
    and a wrong body for one chosen negotiate seed when asked twice."""

    protocol_version = "HTTP/1.1"
    seen: dict[int, int] = {}
    corrupt_seed: int | None = None

    def do_POST(self):  # noqa: N802 - http.server naming
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status, body = 200, json.dumps(payload, sort_keys=True).encode()
        if self.path == "/v1/simulate":
            status = 500
        seed = payload["seed"]
        self.seen[seed] = self.seen.get(seed, 0) + 1
        if seed == self.corrupt_seed and self.seen[seed] > 1:
            body = b"{}"
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_non_200_and_wrong_bytes_are_failures():
    sequence = traffic.serve_sequence(3, 40)
    repeated = next(
        r
        for r in sequence
        if r.repeat_of is not None and sequence[r.repeat_of].workflow == "negotiate"
    )
    _StubHandler.seen = {}
    _StubHandler.corrupt_seed = repeated.payload["seed"]
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        exchanges, start, end = traffic.run_closed_loop(
            "127.0.0.1", server.server_address[1], sequence, connections=2, seconds=30.0
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(exchanges) == len(sequence) and end >= start
    outcome = run.Outcome("serve-mixed", attempted=len(exchanges))
    originals = run.check_exchanges(outcome, exchanges)
    non_200 = {
        f"request {e.request.index}" for e in exchanges if e.request.workflow == "simulate"
    }
    wrong = {
        f"request {r.index}"
        for r in sequence
        if r.repeat_of is not None
        and r.payload["seed"] == repeated.payload["seed"]
        and sequence[r.repeat_of].workflow == "negotiate"
    }
    assert set(outcome.failures) == non_200 | wrong
    assert outcome.failed == len(non_200 | wrong) > len(non_200)
    assert all(e.status == 200 for e in originals)


def test_served_bytes_must_equal_the_replay():
    sequence = traffic.serve_sequence(4, 3)
    exchanges = [
        traffic.Exchange(request, sent=0.0, received=0.1, status=200, body=b"ok")
        for request in sequence
    ]
    outcome = run.Outcome("serve-mixed", attempted=3)
    replies = [{"sha256": run.sha256(b"ok")}, {"sha256": run.sha256(b"other")}]
    run.check_against_replay(
        outcome, {e.request.index: e for e in exchanges}, sequence[:2], replies
    )
    assert list(outcome.failures) == [f"request {sequence[1].index}"]


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    assert run.main(["--workload", "figures", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

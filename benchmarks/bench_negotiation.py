"""Benchmark: batched NegotiationEngine vs. per-trial BOSCO configuration.

The workload is the §V primitive behind Fig. 2 and behind every
marketplace agreement: configure a BOSCO mechanism by evaluating many
random choice-set trials (equilibrium search + Price of Dishonesty) and
summarize the PoD statistics.  The baseline is the per-trial oracle
:func:`repro.reference.pod_statistics`, one pure-Python trial at a
time, and the contender is
:class:`repro.bargaining.mechanism.BoscoService`, which packs all
trials of a cardinality into one
:class:`~repro.bargaining.engine.NegotiationEngine` call.

Scales (``REPRO_BENCH_SCALE`` env var, or ``--paper-scale``):

- ``tiny`` — CI smoke scale: proves the harness and the bit-exactness
  assertion work, makes no speedup claim.
- ``default`` — the reduced experiment scale.
- ``full`` — the paper scale of Fig. 2: ``trials=200`` per cardinality
  with ``W`` up to 100; here the benchmark *asserts* the ≥ 5× speedup
  the batched engine is contracted to deliver.

A second case, ``serve``, times the request shape of the repository
benchmark's ``serve-mixed`` workload (u1, ``W = 20``, 10 trials) through
a warm :meth:`repro.api.Session.negotiate` over 20 seeds — the
small-batch regime where numpy call overhead, not arithmetic, is the
cost — and checks every result against the per-trial oracle.  Its ms
per request land in the same JSON as ``serve_ms_per_request``.

Results are emitted to ``BENCH_negotiation.json`` via ``_emit``.
"""

from __future__ import annotations

import os
import time

import numpy as np
from _emit import emit

from repro import reference
from repro.api import NegotiateRequest, Session
from repro.bargaining.distributions import paper_distribution_u1
from repro.bargaining.mechanism import BoscoService

_SCALES = {
    "tiny": dict(choice_counts=(5, 10), trials=8),
    "default": dict(choice_counts=(10, 30), trials=40),
    "full": dict(choice_counts=(50, 100), trials=200),
}

#: The contracted minimum speedup at full (paper) scale.
FULL_SCALE_MIN_SPEEDUP = 5.0

#: One ``negotiate`` request of the ``serve-mixed`` workload, minus its seed.
SERVE_REQUEST = dict(distribution="u1", num_choices=20, trials=10)
SERVE_SEEDS = range(20)


def _scale_name(paper_scale: bool) -> str:
    env = os.environ.get("REPRO_BENCH_SCALE")
    if env:
        if env not in _SCALES:
            raise ValueError(
                f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {env!r}"
            )
        return env
    return "full" if paper_scale else "default"


def _reference_sweep(choice_counts, trials: int, seed: int):
    """PoD statistics for every cardinality from the per-trial oracle."""
    distribution = paper_distribution_u1()
    rng = np.random.default_rng(seed)
    return {
        num_choices: reference.pod_statistics(distribution, rng, num_choices, trials)
        for num_choices in choice_counts
    }


def _batched_sweep(choice_counts, trials: int, seed: int):
    """PoD statistics for every cardinality from one batched service."""
    service = BoscoService(paper_distribution_u1(), seed=seed)
    return {
        num_choices: service.pod_statistics(num_choices, trials=trials)
        for num_choices in choice_counts
    }


def _serve_case() -> float:
    """Milliseconds per serve-shaped request on a warm session."""
    session = Session()
    requests = [NegotiateRequest(**SERVE_REQUEST, seed=seed) for seed in SERVE_SEEDS]
    # The first request computes the truthful Nash product the session
    # caches; a serving process pays that once, not per request.
    session.negotiate(requests[0])
    started = time.perf_counter()
    results = [session.negotiate(request) for request in requests]
    elapsed = time.perf_counter() - started

    distribution = requests[0].joint_distribution()
    for request, result in zip(requests, results):
        expected = reference.pod_statistics(
            distribution,
            np.random.default_rng(request.seed),
            request.num_choices,
            request.trials,
        )
        assert (
            result.min_pod,
            result.mean_pod,
            result.max_pod,
            result.mean_equilibrium_choices,
            result.converged_trials,
            result.skipped_trials,
        ) == (
            expected["min"],
            expected["mean"],
            expected["max"],
            expected["mean_equilibrium_choices"],
            expected["trials"],
            expected["skipped_trials"],
        )
    return elapsed * 1000.0 / len(requests)


def test_negotiation_engine_speedup(paper_scale):
    scale = _scale_name(paper_scale)
    seed = 7
    choice_counts = _SCALES[scale]["choice_counts"]
    trials = _SCALES[scale]["trials"]

    started = time.perf_counter()
    expected = _reference_sweep(choice_counts, trials, seed)
    reference_time = time.perf_counter() - started

    started = time.perf_counter()
    batched = _batched_sweep(choice_counts, trials, seed)
    engine_time = time.perf_counter() - started

    # The engine must agree with the reference bit for bit, at every
    # scale — not approximately: byte-identical seeded Fig. 2 tables
    # and marketplace traces hang off this equality.
    assert batched == expected

    speedup = reference_time / engine_time if engine_time > 0.0 else float("inf")
    serve_ms = _serve_case()
    emit(
        "negotiation",
        wall_time_s=engine_time,
        operations=len(choice_counts) * trials,
        scale={
            "name": scale,
            "seed": seed,
            "trials": trials,
            "choice_counts": list(choice_counts),
            "serve_request": SERVE_REQUEST,
            "serve_requests": len(SERVE_SEEDS),
        },
        extra={
            "reference_wall_time_s": reference_time,
            "speedup": speedup,
            "mean_pod_at_largest_w": batched[choice_counts[-1]]["mean"],
            "serve_ms_per_request": serve_ms,
        },
    )
    print(
        f"\n[{scale}] BOSCO configuration sweep, W={list(choice_counts)} x "
        f"{trials} trials: reference {reference_time:.3f}s, "
        f"batched {engine_time:.3f}s, speedup {speedup:.1f}x; serve-shaped "
        f"requests {serve_ms:.1f} ms each"
    )

    if scale == "full":
        assert speedup >= FULL_SCALE_MIN_SPEEDUP, (
            f"batched negotiation engine regressed: {speedup:.1f}x < "
            f"{FULL_SCALE_MIN_SPEEDUP:.0f}x at paper scale"
        )

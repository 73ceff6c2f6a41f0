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

Results are emitted to ``BENCH_negotiation.json`` via ``_emit``.
"""

from __future__ import annotations

import os
import time

import numpy as np
from _emit import emit

from repro import reference
from repro.bargaining.distributions import paper_distribution_u1
from repro.bargaining.mechanism import BoscoService

_SCALES = {
    "tiny": dict(choice_counts=(5, 10), trials=8),
    "default": dict(choice_counts=(10, 30), trials=40),
    "full": dict(choice_counts=(50, 100), trials=200),
}

#: The contracted minimum speedup at full (paper) scale.
FULL_SCALE_MIN_SPEEDUP = 5.0


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
    emit(
        "negotiation",
        wall_time_s=engine_time,
        operations=len(choice_counts) * trials,
        scale={
            "name": scale,
            "seed": seed,
            "trials": trials,
            "choice_counts": list(choice_counts),
        },
        extra={
            "reference_wall_time_s": reference_time,
            "speedup": speedup,
            "mean_pod_at_largest_w": batched[choice_counts[-1]]["mean"],
        },
    )
    print(
        f"\n[{scale}] BOSCO configuration sweep, W={list(choice_counts)} x "
        f"{trials} trials: reference {reference_time:.3f}s, "
        f"batched {engine_time:.3f}s, speedup {speedup:.1f}x"
    )

    if scale == "full":
        assert speedup >= FULL_SCALE_MIN_SPEEDUP, (
            f"batched negotiation engine regressed: {speedup:.1f}x < "
            f"{FULL_SCALE_MIN_SPEEDUP:.0f}x at paper scale"
        )

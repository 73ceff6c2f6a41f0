"""Benchmark: warm `repro.api.Session` reuse vs. cold per-call construction.

The workload is the repeated-programmatic-call pattern the API session
exists for: the §VI diversity analysis plus a batched Fig. 2-style
negotiation pass, invoked several times with the same parameters.  The
*cold* baseline constructs a fresh :class:`repro.api.Session` for every
call — which is exactly what the pre-API surface forced on callers:
regenerate the topology, re-enumerate the mutuality agreements, rebuild
the MA path index and the compiled path engine each time.  The *warm*
contender makes the same calls through one session, which serves all of
that from its caches and only re-runs the per-call analysis.

Scales (``REPRO_BENCH_SCALE`` env var, or ``--paper-scale``):

- ``tiny`` — CI smoke scale.
- ``default`` — the reduced experiment scale.
- ``full`` — the ``repro experiments --full`` diversity scale.

At every scale the benchmark *asserts* the ≥ 2× reuse speedup the
session is contracted to deliver (the real margin is far larger: the
warm path skips topology generation and MA enumeration entirely).
Results are emitted to ``BENCH_api_session.json`` via ``_emit``.
"""

from __future__ import annotations

import os
import time

from _emit import emit

from repro.api import DiversityRequest, NegotiateRequest, Session

_SCALES = {
    # tiny is still CI-fast, but large enough that the cold rebuild
    # dominates the fixed per-call negotiation floor — the 2x assertion
    # then has real headroom on noisy shared runners.
    "tiny": dict(tier1=3, tier2=10, tier3=40, stubs=120, sample_size=20),
    "default": dict(tier1=8, tier2=40, tier3=120, stubs=400, sample_size=60),
    "full": dict(tier1=8, tier2=60, tier3=200, stubs=800, sample_size=100),
}

#: The contracted minimum warm-over-cold speedup, at every scale.
MIN_REUSE_SPEEDUP = 2.0

#: Calls per measurement (the first warm call pays the build once).
CALLS = 3


def _scale_name(paper_scale: bool) -> str:
    env = os.environ.get("REPRO_BENCH_SCALE")
    if env:
        if env not in _SCALES:
            raise ValueError(
                f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {env!r}"
            )
        return env
    return "full" if paper_scale else "default"


def _request(scale: dict) -> DiversityRequest:
    return DiversityRequest(
        tier1=scale["tier1"],
        tier2=scale["tier2"],
        tier3=scale["tier3"],
        stubs=scale["stubs"],
        sample_size=scale["sample_size"],
        seed=2021,
    )


def _negotiate(session: Session) -> None:
    """A small batched negotiation pass through the session."""
    session.negotiate(NegotiateRequest(num_choices=10, trials=10, seed=7))


def _one_call(session: Session, request: DiversityRequest):
    result = session.diversity(request)
    _negotiate(session)
    return result


def test_session_reuse_speedup(paper_scale):
    scale_name = _scale_name(paper_scale)
    scale = _SCALES[scale_name]
    request = _request(scale)

    # Cold: a fresh session per call rebuilds every shared artifact.
    cold_times = []
    cold_result = None
    for _ in range(CALLS):
        started = time.perf_counter()
        cold_result = _one_call(Session(), request)
        cold_times.append(time.perf_counter() - started)

    # Warm: one session; the first call builds, the rest reuse.
    session = Session()
    warm_result = _one_call(session, request)  # pays the build once
    warm_times = []
    for _ in range(CALLS):
        started = time.perf_counter()
        warm_result = _one_call(session, request)
        warm_times.append(time.perf_counter() - started)

    # Reuse must not change results.
    assert warm_result == cold_result

    cold = min(cold_times)
    warm = min(warm_times)
    speedup = cold / warm if warm > 0.0 else float("inf")
    emit(
        "api_session",
        wall_time_s=warm,
        operations=CALLS,
        scale={"name": scale_name, "seed": 2021, **scale},
        extra={
            "cold_wall_time_s": cold,
            "speedup": speedup,
        },
    )
    print(
        f"\n[{scale_name}] diversity+negotiation call: cold {cold:.3f}s, "
        f"warm-session {warm:.3f}s, reuse speedup {speedup:.1f}x"
    )

    assert speedup >= MIN_REUSE_SPEEDUP, (
        f"warm-session reuse regressed: {speedup:.1f}x < "
        f"{MIN_REUSE_SPEEDUP:.0f}x at {scale_name} scale"
    )

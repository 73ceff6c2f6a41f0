"""Benchmark: Fig. 6 — bandwidth of the additional MA paths.

Regenerates the three condition series of Fig. 6a (MA paths beating the
maximum / median / minimum GRC path bandwidth per AS pair, under the
degree-gravity capacity model) and the relative bandwidth-increase CDF
of Fig. 6b, through the pair-metric analysis Fig. 5 shares
(``repro.paths.pair_metrics``).  Headline numbers are also emitted to
``BENCH_fig6_bandwidth.json`` (see ``_emit``).
"""

from __future__ import annotations

import time
from dataclasses import asdict

from _emit import emit

from repro.experiments.fig6_bandwidth import run_fig6
from repro.experiments.reporting import format_comparisons


def test_fig6_bandwidth(benchmark, run_once, fig6_config):
    started = time.perf_counter()
    result = run_once(run_fig6, fig6_config)
    emit(
        "fig6_bandwidth",
        wall_time_s=time.perf_counter() - started,
        operations=fig6_config.pair_sample_size,
        scale=asdict(fig6_config),
        extra={"num_agreements": result.num_agreements},
    )

    print()
    print(format_comparisons("Fig. 6 — bandwidth of MA paths", result.comparisons()))
    print(result.report())

    analysis = result.analysis
    above_max = analysis.fraction_of_pairs_improving("max", 1)
    above_median = analysis.fraction_of_pairs_improving("median", 1)
    above_min = analysis.fraction_of_pairs_improving("min", 1)

    # Condition ordering and a substantial share of pairs gaining a path
    # with more bandwidth than the best GRC path — the Fig. 6a shape.
    assert above_max <= above_median <= above_min
    assert above_max >= 0.15

    # Fig. 6b: benefiting pairs gain real bandwidth.
    increase = analysis.gain_cdf()
    assert increase.count > 0
    assert increase.minimum > 0.0
    assert increase.median >= 0.10

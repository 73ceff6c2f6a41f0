"""Benchmark: Fig. 5 — geodistance of the additional MA paths.

Regenerates the three condition series of Fig. 5a (MA paths beating the
maximum / median / minimum GRC geodistance per AS pair) and the relative
geodistance-reduction CDF of Fig. 5b, through the pair-metric analysis
Fig. 6 shares (``repro.paths.pair_metrics``).  Headline numbers are also
emitted to ``BENCH_fig5_geodistance.json`` (see ``_emit``).
"""

from __future__ import annotations

import time
from dataclasses import asdict

from _emit import emit

from repro.experiments.fig5_geodistance import run_fig5
from repro.experiments.reporting import format_comparisons


def test_fig5_geodistance(benchmark, run_once, fig5_config):
    started = time.perf_counter()
    result = run_once(run_fig5, fig5_config)
    emit(
        "fig5_geodistance",
        wall_time_s=time.perf_counter() - started,
        operations=fig5_config.pair_sample_size,
        scale=asdict(fig5_config),
        extra={"num_agreements": result.num_agreements},
    )

    print()
    print(format_comparisons("Fig. 5 — geodistance of MA paths", result.comparisons()))
    print(result.report())

    analysis = result.analysis
    below_min = analysis.fraction_of_pairs_improving("min", 1)
    below_median = analysis.fraction_of_pairs_improving("median", 1)
    below_max = analysis.fraction_of_pairs_improving("max", 1)

    # Condition ordering (a path below the GRC minimum also beats median/max)
    # and a substantial share of pairs benefiting — the Fig. 5a shape.
    assert below_min <= below_median <= below_max
    assert below_min >= 0.25

    # Fig. 5b: the reductions are real (strictly positive) and sizeable for
    # the median benefiting pair.
    reduction = analysis.gain_cdf()
    assert reduction.count > 0
    assert reduction.minimum > 0.0
    assert reduction.median >= 0.10

"""Benchmark: §III-B3 — path diversity from extension agreements.

The paper sketches (but does not evaluate) the extension of agreement
paths to further agreements.  This benchmark quantifies that next step on
the synthetic topology: how many additional length-4 paths ASes gain when
the segments created by the base MAs are offered onward to peers.
"""

from __future__ import annotations

from repro.agreements import enumerate_mutuality_agreements
from repro.experiments.reporting import format_table
from repro.paths import analyze_path_diversity, build_ma_path_index
from repro.paths.extensions import analyze_extension_diversity
from repro.paths.diversity import sample_ases
from repro.topology import generate_topology


def test_extension_agreement_diversity(benchmark):
    topology = generate_topology(
        num_tier1=3, num_tier2=8, num_tier3=25, num_stubs=70, seed=41
    )
    graph = topology.graph
    base = list(enumerate_mutuality_agreements(graph))
    sample = sample_ases(graph, 40, seed=2)

    def run():
        base_diversity = analyze_path_diversity(
            graph, index=build_ma_path_index(base), sample_size=40, seed=2
        )
        extension_summary = analyze_extension_diversity(graph, base, sample)
        return base_diversity, extension_summary

    base_diversity, extension_summary = benchmark.pedantic(run, rounds=1, iterations=1)

    base_gain = base_diversity.additional_path_summary()
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["base MAs", f"{len(base)}"],
                ["extension agreements", f"{extension_summary['num_extension_agreements']:.0f}"],
                ["mean additional length-3 paths (base MAs)", f"{base_gain['mean']:.0f}"],
                ["mean additional length-4 paths (extensions)", f"{extension_summary['mean']:.0f}"],
                ["max additional length-4 paths (extensions)", f"{extension_summary['max']:.0f}"],
            ],
        )
    )

    # Extensions open yet more paths on top of the base agreements.
    assert extension_summary["num_extension_agreements"] > len(base)
    assert extension_summary["mean"] > 0.0

"""Ablation: peering density vs. the path-diversity gains of MAs.

DESIGN.md calls out the topology generator's peering density as the key
substitution parameter (the real AS graph's IXP peering is what makes
MAs so productive in §VI).  This ablation sweeps the IXP peering knobs
and reports how the MA path gains and the Fig. 5/6 improvement
fractions respond — the gains must grow monotonically with peering
density for the substitution argument to hold.
"""

from __future__ import annotations

from repro.agreements import enumerate_mutuality_agreements
from repro.experiments.reporting import format_table
from repro.paths import analyze_geodistance, analyze_path_diversity, build_ma_path_index
from repro.topology.generator import InternetTopologyGenerator, TopologyParameters
from repro.topology.geography import SyntheticGeographyGenerator

#: (label, ixp membership probability, ixp peering probability)
DENSITY_LEVELS = (
    ("sparse", 0.2, 0.3),
    ("medium", 0.4, 0.6),
    ("dense (default-like)", 0.6, 0.8),
)


def _run_level(membership: float, peering: float) -> dict[str, float]:
    params = TopologyParameters(
        num_tier1=4,
        num_tier2=15,
        num_tier3=50,
        num_stubs=130,
        ixp_membership_probability=membership,
        ixp_peering_probability=peering,
        seed=17,
    )
    topology = InternetTopologyGenerator(params).generate()
    graph = topology.graph
    agreements = list(enumerate_mutuality_agreements(graph))
    index = build_ma_path_index(agreements)
    diversity = analyze_path_diversity(graph, index=index, sample_size=80, seed=3)
    embedding = SyntheticGeographyGenerator(seed=3).embed(graph)
    geodistance = analyze_geodistance(
        graph, embedding, index=index, sample_size=25, seed=3
    )
    return {
        "peering_links": float(graph.num_peering_links()),
        "agreements": float(len(agreements)),
        "additional_paths_mean": diversity.additional_path_summary()["mean"],
        "geo_improving_fraction": geodistance.fraction_of_pairs_improving("min", 1),
    }


def test_peering_density_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: [_run_level(m, p) for _, m, p in DENSITY_LEVELS],
        rounds=1,
        iterations=1,
    )

    rows = []
    for (label, _, _), result in zip(DENSITY_LEVELS, results):
        rows.append(
            [
                label,
                f"{result['peering_links']:.0f}",
                f"{result['agreements']:.0f}",
                f"{result['additional_paths_mean']:.0f}",
                f"{result['geo_improving_fraction']:.0%}",
            ]
        )
    print()
    print(
        format_table(
            [
                "peering density",
                "peering links",
                "MAs",
                "mean additional paths",
                "pairs beating GRC min geodistance",
            ],
            rows,
        )
    )

    gains = [result["additional_paths_mean"] for result in results]
    fractions = [result["geo_improving_fraction"] for result in results]
    assert gains == sorted(gains), "MA path gains must grow with peering density"
    assert fractions[-1] >= fractions[0], (
        "the share of improving pairs must not shrink with denser peering"
    )

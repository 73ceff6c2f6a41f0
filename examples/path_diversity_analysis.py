#!/usr/bin/env python3
"""Path-diversity study on a synthetic Internet-like topology (§VI).

Regenerates, at a reduced scale, the data behind Figs. 3–6: the number of
length-3 paths and nearby destinations per AS under different degrees of
MA conclusion, and the geodistance / bandwidth quality of the new paths.

Run with::

    python examples/path_diversity_analysis.py
"""

from __future__ import annotations

from repro.agreements import enumerate_mutuality_agreements
from repro.paths import (
    analyze_bandwidth,
    analyze_geodistance,
    analyze_path_diversity,
    build_ma_path_index,
)
from repro.topology import degree_gravity_capacities, generate_topology
from repro.topology.geography import SyntheticGeographyGenerator


def main() -> None:
    print("Generating a synthetic Internet-like AS topology ...")
    topology = generate_topology(
        num_tier1=6, num_tier2=25, num_tier3=80, num_stubs=250, seed=2021
    )
    graph = topology.graph
    print(f"  {graph}")

    agreements = list(enumerate_mutuality_agreements(graph))
    print(f"  possible mutuality-based agreements (one per peering link): {len(agreements)}")
    index = build_ma_path_index(agreements)
    print()

    print("Fig. 3 / Fig. 4 — paths and destinations per AS (sample of 120 ASes):")
    diversity = analyze_path_diversity(
        graph, index=index, sample_size=120, seed=1
    )
    for scenario in ("GRC", "MA* (Top 1)", "MA* (Top 5)", "MA*", "MA"):
        paths = diversity.path_cdf(scenario)
        destinations = diversity.destination_cdf(scenario)
        print(
            f"  {scenario:<12} mean paths = {paths.mean:7.0f}   "
            f"mean destinations = {destinations.mean:6.0f}"
        )
    extra_paths = diversity.additional_path_summary()
    extra_destinations = diversity.additional_destination_summary()
    print(
        f"  additional paths per AS: mean = {extra_paths['mean']:.0f}, "
        f"max = {extra_paths['max']:.0f}"
    )
    print(
        f"  additional destinations per AS: mean = {extra_destinations['mean']:.0f}, "
        f"max = {extra_destinations['max']:.0f}"
    )
    print()

    print("Fig. 5 — geodistance of the additional MA paths (sample of 40 source ASes):")
    embedding = SyntheticGeographyGenerator(seed=3).embed(graph)
    geodistance = analyze_geodistance(
        graph, embedding, index=index, sample_size=40, seed=2
    )
    for condition in ("max", "median", "min"):
        fraction = geodistance.fraction_of_pairs_improving(condition, 1)
        print(f"  pairs with ≥1 MA path shorter than the GRC {condition}: {fraction:.0%}")
    reduction = geodistance.gain_cdf()
    if reduction.count:
        print(
            f"  median relative geodistance reduction among benefiting pairs: "
            f"{reduction.median:.0%} (paper: ≈24%)"
        )
    print()

    print("Fig. 6 — bandwidth of the additional MA paths (degree-gravity capacities):")
    capacities = degree_gravity_capacities(graph)
    bandwidth = analyze_bandwidth(
        graph, capacities, index=index, sample_size=40, seed=2
    )
    fraction = bandwidth.fraction_of_pairs_improving("max", 1)
    print(
        f"  pairs with ≥1 MA path above the GRC maximum bandwidth: "
        f"{fraction:.0%} (paper: ≈35%)"
    )
    increase = bandwidth.gain_cdf()
    if increase.count:
        print(
            f"  median relative bandwidth increase among benefiting pairs: "
            f"{increase.median:.0%} (paper: ≈150%)"
        )


if __name__ == "__main__":
    main()

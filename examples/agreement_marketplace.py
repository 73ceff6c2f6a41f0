#!/usr/bin/env python3
"""An automated marketplace for mutuality-based agreements.

Combines all layers of the library into the workflow the paper
envisions: every peering link of a topology is a potential
mutuality-based agreement; each candidate is evaluated economically
under a synthetic traffic scenario, negotiated through cash
compensation, and — when concluded — deployed into the path-aware
network, whose path diversity grows as agreements accumulate.

Run with::

    python examples/agreement_marketplace.py
"""

from __future__ import annotations

import numpy as np

from repro.agreements import (
    AgreementScenario,
    SegmentTraffic,
    enumerate_mutuality_agreements,
)
from repro.core import path_engine_for
from repro.economics import ENDHOSTS, FlowVector, default_business_models
from repro.optimization import negotiate_cash_agreement
from repro.paths import build_ma_path_index
from repro.routing import PathAwareNetwork
from repro.topology import generate_topology


def synthetic_scenario(agreement, graph, rng) -> AgreementScenario:
    """A randomized but structured traffic expectation for one agreement.

    Rerouted volume scales with how much provider traffic the beneficiary
    could plausibly shift (proportional to its degree); attracted traffic
    is a fraction of that, capped by a demand limit.
    """
    segments = []
    rerouted_per_party: dict[int, dict[int, float]] = {
        party: {} for party in agreement.parties
    }
    for segment in agreement.all_segments():
        beneficiary_degree = graph.degree(segment.beneficiary)
        rerouted = float(rng.uniform(0.0, 1.0) * min(beneficiary_degree, 10))
        attracted = float(rng.uniform(0.0, 0.5) * rerouted)
        provider_candidates = sorted(graph.providers(segment.beneficiary))
        previous = provider_candidates[0] if provider_candidates else None
        if previous is not None:
            per_provider = rerouted_per_party[segment.beneficiary]
            per_provider[previous] = per_provider.get(previous, 0.0) + rerouted
        segments.append(
            SegmentTraffic(
                segment=segment,
                rerouted={previous: rerouted},
                attracted={ENDHOSTS: attracted},
                attracted_limits={ENDHOSTS: attracted * 2.0},
            )
        )
    # Baselines that actually carry the traffic the parties plan to reroute
    # (plus headroom for traffic that keeps using the provider).
    baseline = {}
    for party in agreement.parties:
        flows = {ENDHOSTS: 20.0}
        for provider, volume in rerouted_per_party[party].items():
            flows[provider] = volume * 1.5 + 10.0
        baseline[party] = FlowVector(flows)
    return AgreementScenario(agreement=agreement, segments=segments, baseline=baseline)


def main() -> None:
    rng = np.random.default_rng(11)
    topology = generate_topology(
        num_tier1=5, num_tier2=18, num_tier3=60, num_stubs=160, seed=5
    )
    graph = topology.graph
    businesses = default_business_models(graph)
    print(f"Topology: {graph}")

    candidates = list(enumerate_mutuality_agreements(graph))
    print(f"Candidate mutuality-based agreements: {len(candidates)}")

    network = PathAwareNetwork(graph)
    network.authorize_grc_segments()
    grc_segments = network.num_authorized_segments()

    concluded = []
    total_transfer = 0.0
    for agreement in candidates:
        scenario = synthetic_scenario(agreement, graph, rng)
        negotiation = negotiate_cash_agreement(scenario, businesses)
        if not negotiation.concluded:
            continue
        network.apply_agreement(agreement)
        concluded.append((agreement, negotiation))
        total_transfer += abs(negotiation.transfer_x_to_y)

    print(f"Concluded agreements: {len(concluded)} / {len(candidates)}")
    print(f"Total |cash compensation| exchanged: {total_transfer:.1f}")
    print(
        f"Authorized transit segments: {grc_segments} under the GRC → "
        f"{network.num_authorized_segments()} after deployment"
    )
    print()

    index = build_ma_path_index([agreement for agreement, _ in concluded])
    sample = sorted(graph.ases)[:: max(1, len(graph) // 10)][:10]
    print("Path diversity for a few ASes (GRC paths → +new MA paths):")
    engine = path_engine_for(graph)
    for asn in sample:
        grc_count = len(engine.paths(asn))
        ma_count = len(index.all_paths(asn) - engine.paths(asn))
        print(f"  AS {asn:>4}: {grc_count:6d} → +{ma_count}")

    best = max(concluded, key=lambda item: item[1].joint_surplus)
    agreement, negotiation = best
    print()
    print("Most valuable agreement:")
    print(f"  {agreement.notation()}")
    print(
        f"  joint surplus = {negotiation.joint_surplus:.2f}, "
        f"transfer = {negotiation.transfer_x_to_y:+.2f}"
    )


if __name__ == "__main__":
    main()

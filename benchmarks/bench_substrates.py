"""Micro-benchmarks of the substrate layers.

These are conventional pytest-benchmark timings (multiple rounds) of the
hot paths the experiments rely on: topology generation, GRC path
enumeration, MA enumeration and indexing, geodistance evaluation, BGP
convergence, and BOSCO equilibrium computation.  Each test emits its
mean round time to ``BENCH_substrates_<name>.json`` (see ``_emit``) so
CI can track the trajectory of every substrate, not just the headline
benches.
"""

from __future__ import annotations

import numpy as np
import pytest

from _emit import emit_from_benchmark

from repro.agreements import enumerate_mutuality_agreements
from repro.bargaining import (
    GameBatch,
    NegotiationEngine,
    paper_distribution_u1,
    random_choice_set,
)
from repro.paths import build_ma_path_index, grc_length3_paths
from repro.reference import BargainingGame
from repro.routing import BGPSimulator
from repro.routing.policies import gao_rexford_policies
from repro.topology import generate_topology
from repro.topology.geography import SyntheticGeographyGenerator

_SCALE = dict(num_tier1=4, num_tier2=15, num_tier3=40, num_stubs=120, seed=77)


@pytest.fixture(scope="module")
def bench_topology():
    return generate_topology(**_SCALE)


def test_topology_generation(benchmark):
    result = benchmark(generate_topology, **_SCALE)
    assert len(result.graph) == 179
    emit_from_benchmark(
        benchmark,
        "substrates_topology_generation",
        operations=len(result.graph),
        scale=dict(_SCALE),
    )


def test_grc_path_enumeration(benchmark, bench_topology):
    graph = bench_topology.graph
    sources = sorted(graph.ases)[:50]

    def enumerate_all() -> int:
        return sum(len(grc_length3_paths(graph, source)) for source in sources)

    total = benchmark(enumerate_all)
    assert total > 0
    emit_from_benchmark(
        benchmark,
        "substrates_grc_path_enumeration",
        operations=len(sources),
        scale=dict(_SCALE),
        extra={"total_paths": total},
    )


def test_ma_enumeration_and_indexing(benchmark, bench_topology):
    graph = bench_topology.graph

    def enumerate_and_index() -> int:
        agreements = list(enumerate_mutuality_agreements(graph))
        index = build_ma_path_index(agreements)
        return sum(len(index.direct_paths(asn)) for asn in list(graph)[:50])

    total = benchmark(enumerate_and_index)
    assert total > 0
    emit_from_benchmark(
        benchmark,
        "substrates_ma_enumeration_and_indexing",
        operations=len(graph),
        scale=dict(_SCALE),
    )


def test_geodistance_evaluation(benchmark, bench_topology):
    graph = bench_topology.graph
    embedding = SyntheticGeographyGenerator(seed=5).embed(graph)
    source = sorted(graph.ases)[10]
    paths = list(grc_length3_paths(graph, source))[:200]

    def evaluate() -> float:
        return sum(embedding.path_geodistance(path) for path in paths)

    total = benchmark(evaluate)
    assert total > 0.0
    emit_from_benchmark(
        benchmark,
        "substrates_geodistance_evaluation",
        operations=len(paths),
        scale=dict(_SCALE),
    )


def test_bgp_convergence(benchmark, bench_topology):
    graph = bench_topology.graph
    destination = sorted(graph.tier1_ases())[0]

    def converge() -> bool:
        simulator = BGPSimulator(
            graph=graph, destination=destination, policies=gao_rexford_policies(graph)
        )
        return simulator.run(max_rounds=200).converged

    assert benchmark(converge)
    emit_from_benchmark(
        benchmark,
        "substrates_bgp_convergence",
        operations=len(graph),
        scale=dict(_SCALE),
    )


def test_bosco_equilibrium_computation(benchmark):
    num_choices = 40
    distribution = paper_distribution_u1()
    rng = np.random.default_rng(13)
    choices_x = random_choice_set(distribution.marginal_x, num_choices, rng)
    choices_y = random_choice_set(distribution.marginal_y, num_choices, rng)
    batch = GameBatch.from_choice_sets(distribution, [(choices_x, choices_y)])

    equilibria = benchmark(NegotiationEngine().solve, batch)
    assert equilibria.profile(batch, 0) == BargainingGame(
        distribution_x=distribution.marginal_x,
        distribution_y=distribution.marginal_y,
        choices_x=choices_x,
        choices_y=choices_y,
    ).find_equilibrium()
    emit_from_benchmark(
        benchmark,
        "substrates_bosco_equilibrium",
        operations=num_choices * num_choices,
        scale={"num_choices": num_choices, "seed": 13},
    )

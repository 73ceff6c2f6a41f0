"""Tests for the array-compiled topology view."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CompiledTopology,
    compile_as_rel_file,
    compile_as_rel_lines,
    compile_topology,
)
from repro.core.compiled import ARRAY_FIELDS
from repro.topology import ASGraph, TopologyError, figure1_topology
from repro.topology.caida import dump_as_rel_lines, load_as_rel
from repro.topology.fixtures import AS_B, AS_C, AS_D, AS_E, AS_H
from repro.topology.generator import generate_topology

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


@pytest.fixture()
def graph():
    return figure1_topology()


@pytest.fixture()
def compiled(graph):
    return compile_topology(graph)


class TestInterning:
    def test_indices_cover_sorted_asns(self, graph, compiled):
        assert compiled.asns == tuple(sorted(graph.ases))
        for i, asn in enumerate(compiled.asns):
            assert compiled.index_of(asn) == i
            assert compiled.asn_of(i) == asn

    def test_unknown_asn_raises_topology_error(self, compiled):
        with pytest.raises(TopologyError):
            compiled.index_of(999_999)

    def test_contains_and_len(self, graph, compiled):
        assert len(compiled) == len(graph)
        assert AS_D in compiled
        assert 999_999 not in compiled


class TestAdjacency:
    def test_role_sets_match_the_graph(self, graph, compiled):
        for asn in graph:
            assert compiled.neighbors(asn) == graph.neighbors(asn)
            assert compiled.customers(asn) == graph.customers(asn)
            assert compiled.peers(asn) == graph.peers(asn)
            assert compiled.providers(asn) == graph.providers(asn)

    def test_index_rows_are_sorted(self, graph, compiled):
        for asn in graph:
            row = compiled.neighbors_idx(compiled.index_of(asn))
            assert list(row) == sorted(row)

    def test_set_views_are_cached(self, compiled):
        assert compiled.neighbors(AS_D) is compiled.neighbors(AS_D)

    def test_degrees_match(self, graph, compiled):
        for asn in graph:
            assert compiled.degree(asn) == graph.degree(asn)
        assert np.array_equal(
            compiled.customer_counts,
            [len(graph.customers(a)) for a in compiled.asns],
        )


class TestMembershipTables:
    def test_role_of_matches_the_graph(self, graph, compiled):
        for asn in graph:
            for neighbor in graph.neighbors(asn):
                assert compiled.role_of(asn, neighbor) == graph.role_of(asn, neighbor)

    def test_role_of_non_neighbor_raises(self, compiled):
        with pytest.raises(TopologyError):
            compiled.role_of(AS_H, AS_B)

    def test_roles_on_generated_topology(self):
        graph = generate_topology(
            num_tier1=3, num_tier2=10, num_tier3=30, num_stubs=80, seed=5
        ).graph
        compiled = compile_topology(graph)
        for asn in sorted(graph.ases)[:25]:
            for neighbor in graph.neighbors(asn):
                assert compiled.role_of(asn, neighbor) is graph.role_of(asn, neighbor)
                assert neighbor in compiled.neighbors(asn)


class TestInvalidationContract:
    def test_compile_cache_returns_same_object_until_mutation(self, graph):
        first = compile_topology(graph)
        assert compile_topology(graph) is first
        graph.add_peering(AS_C, AS_B)
        second = compile_topology(graph)
        assert second is not first
        assert AS_B in second.peers(AS_C)

    def test_fresh_compile_is_not_stale(self, graph):
        compiled = compile_topology(graph)
        assert compile_topology(graph) is compiled

    def test_mutation_marks_the_view_stale(self, graph):
        compiled = compile_topology(graph)
        graph.remove_link(AS_D, AS_E)
        assert compile_topology(graph) is not compiled
        assert AS_E not in compile_topology(graph).neighbors(AS_D)

    def test_every_mutation_kind_bumps_the_counter(self, graph):
        before = graph.mutation_count
        graph.add_as(424242)
        after_add_as = graph.mutation_count
        assert after_add_as > before
        graph.add_provider_customer(424242, AS_H)
        after_link = graph.mutation_count
        assert after_link > after_add_as
        graph.remove_link(424242, AS_H)
        assert graph.mutation_count > after_link

    def test_idempotent_operations_do_not_bump(self, graph):
        graph.add_as(AS_D)  # already present
        before = graph.mutation_count
        graph.add_as(AS_D)
        graph.add_peering(AS_D, AS_E)  # identical existing link
        assert graph.mutation_count == before
        assert compile_topology(graph) is compile_topology(graph)

    def test_view_is_only_its_arrays(self, compiled):
        arrays = {name: getattr(compiled, name) for name in ARRAY_FIELDS}
        rebuilt = CompiledTopology(**arrays)
        assert rebuilt.same_arrays(compiled)
        assert rebuilt.source_fingerprint == compiled.source_fingerprint
        with pytest.raises(ValueError, match="missing compiled arrays: nbr_roles"):
            CompiledTopology(**{k: v for k, v in arrays.items() if k != "nbr_roles"})


#: Fingerprints of fixed topologies, pinned so that a change to how the
#: digest is derived (which would silently orphan every fingerprint-keyed
#: cache entry) fails here.
FIGURE1_FINGERPRINT = "ddbb5ff57841ad3776bf9aeb13217ac2f2de13c63ec695d8aa0f1138b73a6e8d"
SEED7_FINGERPRINT = "db64e6888294da063bec1fed9632de6fb42807cfc82ac3862d5630f816c84d60"
ASN32_FINGERPRINT = "1e384feffdbae5dad993852de8c0c1e65cdb02b344b305982d658b89f57efc49"


def fingerprint(graph: ASGraph) -> str:
    return compile_topology(graph).source_fingerprint


class TestSourceFingerprint:
    def test_pinned_fingerprints(self):
        assert fingerprint(figure1_topology()) == FIGURE1_FINGERPRINT
        assert fingerprint(generate_topology(seed=7).graph) == SEED7_FINGERPRINT
        asn32 = GOLDEN / "asn32.as-rel.txt"
        assert compile_as_rel_file(asn32).source_fingerprint == ASN32_FINGERPRINT
        assert fingerprint(load_as_rel(asn32)) == ASN32_FINGERPRINT

    def test_captured_at_compile_time(self):
        graph = figure1_topology()
        streamed = compile_as_rel_lines(dump_as_rel_lines(graph))
        assert streamed.source_fingerprint == fingerprint(graph) == FIGURE1_FINGERPRINT

    def test_collected_source_refuses_fingerprint(self):
        """Nothing is refused: the digest is read from the view's arrays,
        so the view of a garbage-collected source still reports it."""
        dropped = compile_topology(figure1_topology())  # source collected
        assert dropped.source_fingerprint == FIGURE1_FINGERPRINT

    def test_lazy_fingerprint_refuses_stale_or_collected_source(self):
        """Nothing is refused: a view whose source mutates after
        compilation still reports the fingerprint of its own arrays."""
        graph = figure1_topology()
        mutated = compile_topology(graph)
        graph.remove_link(AS_D, AS_E)
        graph.add_as(424242)
        assert mutated.source_fingerprint == FIGURE1_FINGERPRINT
        assert fingerprint(graph) != FIGURE1_FINGERPRINT

    def test_identical_content_same_fingerprint_across_instances(self):
        first = compile_topology(figure1_topology())
        second = compile_topology(figure1_topology())
        assert first is not second
        assert first.source_fingerprint == second.source_fingerprint

    def test_distinguishes_topologies(self):
        synthetic = generate_topology(
            num_tier1=2, num_tier2=3, num_tier3=4, num_stubs=5, seed=1
        ).graph
        assert fingerprint(synthetic) != FIGURE1_FINGERPRINT

    def test_lazy_fingerprint_memoized_while_source_alive(self, compiled):
        first = compiled.source_fingerprint
        assert compiled.source_fingerprint is first

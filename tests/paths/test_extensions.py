"""Unit tests for extension-agreement path diversity (§III-B3).

``TestEnumeration`` and ``TestPathIndex`` check the object oracle in
:mod:`repro.reference`; ``TestAnalysis`` pins the closed-form counts of
:mod:`repro.paths.extensions` to the values that oracle gives.
"""

import pytest

from repro.agreements import enumerate_mutuality_agreements, figure1_mutuality_agreement
from repro.paths.extensions import analyze_extension_diversity
from repro.reference import build_extension_path_index, enumerate_extension_agreements
from repro.topology import AS_A, AS_C, AS_D, AS_E, AS_F, figure1_topology


@pytest.fixture()
def graph():
    return figure1_topology()


class TestEnumeration:
    def test_figure1_example_extension_present(self, graph):
        """The §III-B3 example: E can offer the segment EDA to its peer F."""
        base = [figure1_mutuality_agreement(graph)]
        extensions = enumerate_extension_agreements(graph, base)
        offered = {
            (extension.party_x, extension.party_y, offer.segment.path)
            for extension in extensions
            for offer in extension.segment_offers_x
        }
        assert (AS_E, AS_F, (AS_E, AS_D, AS_A)) in offered

    def test_peers_on_the_segment_are_skipped(self, graph):
        base = [figure1_mutuality_agreement(graph)]
        extensions = enumerate_extension_agreements(graph, base)
        for extension in extensions:
            for offer in extension.segment_offers_x:
                assert extension.party_y not in offer.segment.path

    def test_all_extensions_reference_base_agreements(self, graph):
        base = list(enumerate_mutuality_agreements(graph))
        extensions = enumerate_extension_agreements(graph, base)
        base_ids = {id(agreement) for agreement in base}
        for extension in extensions:
            assert extension.depends_on() <= base_ids


class TestPathIndex:
    def test_length4_paths_created(self, graph):
        base = [figure1_mutuality_agreement(graph)]
        extensions = enumerate_extension_agreements(graph, base)
        index = build_extension_path_index(extensions)
        assert (AS_F, AS_E, AS_D, AS_A) in index.paths_of(AS_F)

    def test_paths_have_four_distinct_ases(self, graph):
        base = list(enumerate_mutuality_agreements(graph))
        index = build_extension_path_index(
            enumerate_extension_agreements(graph, base)
        )
        for asn in graph:
            for path in index.paths_of(asn):
                assert len(path) == 4
                assert len(set(path)) == 4
                assert path[0] == asn

    def test_counts_match_paths(self, graph):
        base = list(enumerate_mutuality_agreements(graph))
        index = build_extension_path_index(
            enumerate_extension_agreements(graph, base)
        )
        for asn in graph:
            assert index.count(asn) == len(index.paths_of(asn))


class TestAnalysis:
    def test_summary_structure(self, graph):
        base = list(enumerate_mutuality_agreements(graph))
        sample = tuple(sorted(graph.ases))
        summary = analyze_extension_diversity(graph, base, sample)
        assert summary["num_extension_agreements"] > 0
        assert summary["max"] >= summary["mean"] >= 0.0
        assert summary == {
            "count": 9.0,
            "mean": 0.6666666666666666,
            "median": 0.0,
            "min": 0.0,
            "max": 2.0,
            "num_extension_agreements": 6.0,
        }

    def test_extensions_add_paths_on_generated_topology(self, small_topology):
        graph = small_topology.graph
        base = list(enumerate_mutuality_agreements(graph))
        sample = tuple(sorted(graph.ases))[:40]
        summary = analyze_extension_diversity(graph, base, sample)
        assert summary["mean"] > 0.0
        assert summary == {
            "count": 40.0,
            "mean": 7309.475,
            "median": 7183.0,
            "min": 6.0,
            "max": 20688.0,
            "num_extension_agreements": 905273.0,
        }

    def test_cdf_is_over_the_sample(self, graph):
        base = list(enumerate_mutuality_agreements(graph))
        sample = (AS_C, AS_D, AS_E, AS_F)
        summary = analyze_extension_diversity(graph, base, sample)
        assert summary["count"] == len(sample)

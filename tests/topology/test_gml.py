"""Unit tests for GML topology import/export.

The writer is deterministic and the round trip is lossless: a graph
dumped to GML and re-parsed has the same content fingerprint — the
same digest the as-rel serialization of the same graph produces, so
the artifact store and sweep caches treat both formats as one
topology.
"""

import pytest

from repro.core import compile_topology
from repro.topology import (
    GmlFormatError,
    dump_gml_lines,
    generate_topology,
    load_gml,
    parse_gml,
    save_gml,
)
from repro.topology.fixtures import figure1_topology

SAMPLE = """\
graph [
  directed 1
  node [ id 1 label "1" ]
  node [ id 2 label "2" ]
  node [ id 3 label "3" ]
  edge [ source 1 target 2 relationship "p2c" ]
  edge [ source 2 target 3 relationship "p2p" ]
]
"""


class TestParsing:
    def test_parse_sample(self):
        graph = parse_gml(SAMPLE)
        assert graph.ases == frozenset({1, 2, 3})
        assert graph.customers(1) == frozenset({2})
        assert graph.peers(2) == frozenset({3})

    @pytest.mark.parametrize("synonym", ["p2c", "provider", "transit"])
    def test_transit_relationship_synonyms(self, synonym):
        text = SAMPLE.replace('"p2c"', f'"{synonym}"')
        assert parse_gml(text).customers(1) == frozenset({2})

    @pytest.mark.parametrize("synonym", ["p2p", "peer", "peering"])
    def test_peering_relationship_synonyms(self, synonym):
        text = SAMPLE.replace('"p2p"', f'"{synonym}"')
        assert parse_gml(text).peers(2) == frozenset({3})

    def test_missing_relationship_defaults_to_peering(self):
        text = SAMPLE.replace(' relationship "p2p"', "")
        assert parse_gml(text).peers(2) == frozenset({3})

    def test_isolated_node_preserved(self):
        text = SAMPLE.replace(
            '  node [ id 3 label "3" ]',
            '  node [ id 3 label "3" ]\n  node [ id 9 label "9" ]',
        )
        graph = parse_gml(text)
        assert 9 in graph.ases
        assert graph.neighbors(9) == frozenset()


class TestValidation:
    def test_no_graph_block_rejected(self):
        with pytest.raises(GmlFormatError, match="no 'graph"):
            parse_gml("node [ id 1 ]")

    def test_unknown_relationship_rejected(self):
        with pytest.raises(GmlFormatError, match="relationship"):
            parse_gml(SAMPLE.replace('"p2p"', '"sibling"'))

    def test_duplicate_node_id_rejected(self):
        text = SAMPLE.replace(
            'node [ id 2 label "2" ]', 'node [ id 2 label "2" ]\n  node [ id 2 ]'
        )
        with pytest.raises(GmlFormatError, match="duplicate node id 2"):
            parse_gml(text)

    def test_edge_to_undeclared_node_rejected(self):
        text = SAMPLE.replace("target 3", "target 4")
        with pytest.raises(GmlFormatError):
            parse_gml(text)

    def test_non_integer_node_id_rejected(self):
        with pytest.raises(GmlFormatError, match="not an integer"):
            parse_gml('graph [ node [ id "x" ] ]')


def fingerprint(graph):
    return compile_topology(graph).source_fingerprint


class TestRoundTrip:
    def test_figure1_round_trip_preserves_fingerprint(self):
        original = figure1_topology()
        restored = parse_gml("\n".join(dump_gml_lines(original)) + "\n")
        assert restored.ases == original.ases
        assert set(restored.links) == set(original.links)
        assert fingerprint(restored) == fingerprint(original)

    def test_paper_scale_round_trip_preserves_fingerprint(self):
        original = generate_topology(
            num_tier1=3, num_tier2=8, num_tier3=25, num_stubs=70, seed=7
        ).graph
        restored = parse_gml("\n".join(dump_gml_lines(original)) + "\n")
        assert fingerprint(restored) == fingerprint(original)

    def test_save_and_load_round_trip(self, tmp_path):
        original = figure1_topology()
        path = tmp_path / "topology.gml"
        save_gml(original, path)
        restored = load_gml(path)
        assert fingerprint(restored) == fingerprint(original)

    def test_writer_is_deterministic(self):
        original = figure1_topology()
        assert dump_gml_lines(original) == dump_gml_lines(figure1_topology())

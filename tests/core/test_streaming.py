"""Unit tests for the streaming lines→arrays compile path.

The contract: for any valid as-rel content,
:func:`repro.core.compile_as_rel_lines` must produce a
:class:`~repro.core.CompiledTopology` whose arrays and source
fingerprint are identical to parsing the same lines into an
:class:`~repro.topology.ASGraph` and compiling that — without ever
building the dict graph.  Validation must be no weaker than the graph
path's.
"""

import pytest

from repro.core import compile_as_rel_file, compile_as_rel_lines, compile_topology
from repro.topology import generate_topology
from repro.topology.caida import CaidaFormatError, dump_as_rel_lines, parse_as_rel_lines
from repro.topology.fixtures import figure1_topology

SAMPLE = [
    "# comment",
    "1|2|-1",
    "1|3|-1",
    "2|3|0",
    "3|4|-1|mlp",
]


class TestEquivalenceWithGraphCompile:
    def test_sample_lines_match_graph_compile(self):
        streamed = compile_as_rel_lines(SAMPLE)
        reference = compile_topology(parse_as_rel_lines(SAMPLE))
        assert streamed.same_arrays(reference)
        assert streamed.source_fingerprint == reference.source_fingerprint

    def test_figure1_topology_matches_graph_compile(self):
        graph = figure1_topology()
        lines = dump_as_rel_lines(graph)
        streamed = compile_as_rel_lines(lines)
        assert streamed.same_arrays(compile_topology(graph))
        assert streamed.source_fingerprint == compile_topology(graph).source_fingerprint

    @pytest.mark.parametrize("seed", [0, 7, 2021])
    def test_generated_topologies_match_graph_compile(self, seed):
        graph = generate_topology(
            num_tier1=3, num_tier2=6, num_tier3=15, num_stubs=40, seed=seed
        ).graph
        streamed = compile_as_rel_lines(dump_as_rel_lines(graph))
        assert streamed.same_arrays(compile_topology(graph))
        assert streamed.source_fingerprint == compile_topology(graph).source_fingerprint

    def test_line_order_does_not_change_fingerprint(self):
        shuffled = [SAMPLE[3], SAMPLE[1], SAMPLE[4], SAMPLE[2]]
        assert (
            compile_as_rel_lines(SAMPLE).source_fingerprint
            == compile_as_rel_lines(shuffled).source_fingerprint
        )

    def test_empty_input_compiles_to_empty_topology(self):
        streamed = compile_as_rel_lines(["# nothing", ""])
        assert len(streamed) == 0
        assert streamed.same_arrays(compile_topology(parse_as_rel_lines([])))
        assert (
            streamed.source_fingerprint
            == compile_topology(parse_as_rel_lines([])).source_fingerprint
        )


class TestValidation:
    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(CaidaFormatError, match=r"line 2: self-loop"):
            compile_as_rel_lines(["1|2|0", "9|9|0"])

    def test_conflicting_duplicate_rejected_with_line_numbers(self):
        with pytest.raises(
            CaidaFormatError,
            match=r"conflicting duplicate link.*line",
        ):
            compile_as_rel_lines(["1|2|-1", "1|2|0"])

    def test_identical_duplicates_deduplicated(self):
        streamed = compile_as_rel_lines(["1|2|-1", "1|2|-1"])
        reference = compile_topology(parse_as_rel_lines(["1|2|-1"]))
        assert streamed.same_arrays(reference)

    def test_malformed_line_rejected(self):
        with pytest.raises(CaidaFormatError, match="line 1"):
            compile_as_rel_lines(["1|2"])


class TestFileCompile:
    def test_compile_as_rel_file_matches_lines(self, tmp_path):
        path = tmp_path / "topo.as-rel.txt"
        path.write_text("\n".join(SAMPLE) + "\n", encoding="utf-8")
        from_file = compile_as_rel_file(path)
        assert from_file.same_arrays(compile_as_rel_lines(SAMPLE))
        assert (
            from_file.source_fingerprint
            == compile_as_rel_lines(SAMPLE).source_fingerprint
        )

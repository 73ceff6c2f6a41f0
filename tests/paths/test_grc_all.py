"""Unit tests for the sharded all-sources GRC pass.

The determinism contract under test: for the same topology, the pass
produces byte-identical per-source CSV output no matter how it is
executed — sequential, blocked, or sharded across worker processes —
because shards are merged in fixed range order.
"""

import numpy as np
import pytest

from repro.core import PathEngine, compile_as_rel_lines
from repro.core.artifacts import ArtifactStore
from repro.paths.grc_all import GrcAllPass, plan_ranges, run_grc_all
from repro.topology import generate_topology
from repro.topology.caida import dump_as_rel_lines


@pytest.fixture(scope="module")
def compiled():
    graph = generate_topology(
        num_tier1=3, num_tier2=8, num_tier3=25, num_stubs=70, seed=2021
    ).graph
    # Detached view: carries its fingerprint independent of graph lifetime.
    return compile_as_rel_lines(dump_as_rel_lines(graph))


class TestPlanRanges:
    @pytest.mark.parametrize("n,shards", [(10, 3), (7, 7), (100, 8), (3, 10), (1, 1)])
    def test_ranges_partition_the_sources_in_order(self, n, shards):
        ranges = plan_ranges(n, shards)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (_, prev_hi), (lo, hi) in zip(ranges, ranges[1:]):
            assert lo == prev_hi
            assert lo < hi
        assert len(ranges) == min(n, shards)

    def test_ranges_are_balanced(self):
        sizes = [hi - lo for lo, hi in plan_ranges(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_topology_yields_no_ranges(self):
        assert plan_ranges(0, 4) == []

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError, match="shards must be a positive integer"):
            plan_ranges(10, 0)


class TestSequentialPass:
    def test_matches_path_engine_by_source(self, compiled):
        grc_pass = run_grc_all(compiled)
        engine = PathEngine(compiled)
        counts = engine.counts_by_source()
        destination_counts = engine.destination_counts_by_source()
        for asn, paths, destinations in zip(
            grc_pass.asns, grc_pass.path_counts, grc_pass.destination_counts
        ):
            assert counts[int(asn)] == int(paths)
            assert destination_counts[int(asn)] == int(destinations)

    def test_summary_fields(self, compiled):
        summary = run_grc_all(compiled).summary()
        assert summary["num_ases"] == compiled.n
        assert summary["total_paths"] > 0
        assert summary["max_paths"] >= summary["mean_paths"]
        assert summary["max_destinations"] >= summary["mean_destinations"]

    def test_csv_layout(self, compiled, tmp_path):
        grc_pass = run_grc_all(compiled)
        lines = grc_pass.csv_lines()
        assert lines[0] == "asn,paths,destinations"
        assert len(lines) == compiled.n + 1
        out = tmp_path / "grc.csv"
        grc_pass.write_csv(out)
        assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


class TestShardedPass:
    def test_sharded_run_is_byte_identical_to_sequential(self, compiled, tmp_path):
        sequential = run_grc_all(compiled)
        artifact = ArtifactStore(tmp_path).save(compiled)
        sharded = run_grc_all(compiled, jobs=2, artifact_path=artifact)
        assert sharded.csv_lines() == sequential.csv_lines()
        assert sharded.fingerprint == sequential.fingerprint

    def test_more_shards_than_jobs_still_identical(self, compiled, tmp_path):
        sequential = run_grc_all(compiled)
        artifact = ArtifactStore(tmp_path).save(compiled)
        sharded = run_grc_all(compiled, jobs=2, shards=5, artifact_path=artifact)
        assert sharded.csv_lines() == sequential.csv_lines()

    def test_jobs_above_one_requires_artifact(self, compiled):
        with pytest.raises(ValueError, match="requires an artifact_path"):
            run_grc_all(compiled, jobs=2)

    def test_invalid_jobs_rejected(self, compiled):
        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            run_grc_all(compiled, jobs=0)


class TestEmptyTopology:
    def test_empty_pass_is_well_formed(self):
        grc_pass = run_grc_all(compile_as_rel_lines([]))
        assert isinstance(grc_pass, GrcAllPass)
        assert grc_pass.num_ases == 0
        assert grc_pass.total_paths == 0
        assert grc_pass.summary()["mean_paths"] == 0.0
        assert grc_pass.csv_lines() == ["asn,paths,destinations"]
        assert grc_pass.path_counts.dtype == np.int64

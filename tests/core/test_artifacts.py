"""Unit tests for the content-addressed compiled-topology artifact store.

The store's contract: a published artifact, opened memory-mapped, is
indistinguishable from a fresh compile of the same source — same
arrays, same fingerprint, same :class:`~repro.core.PathEngine` outputs
— and publishing is atomic and idempotent (the store is keyed by
content fingerprint, so re-publishing the same topology is a no-op that
returns the existing path).
"""

import json

import pytest

from repro.core import PathEngine, compile_as_rel_lines, compile_topology, load_artifact
from repro.core.artifacts import ArtifactError, ArtifactStore, default_store_root
from repro.topology import generate_topology
from repro.topology.caida import dump_as_rel_lines
from repro.topology.fixtures import figure1_topology


@pytest.fixture
def graph():
    return generate_topology(
        num_tier1=3, num_tier2=6, num_tier3=15, num_stubs=40, seed=11
    ).graph


def saved(store: ArtifactStore, graph):
    """Publish a fresh compile of ``graph``; returns ``(compiled, path)``."""
    compiled = compile_topology(graph)
    return compiled, store.save(compiled)


class TestRoundTrip:
    def test_loaded_artifact_matches_fresh_compile(self, tmp_path, graph):
        _, path = saved(ArtifactStore(tmp_path), graph)
        view = load_artifact(path)
        fresh = compile_topology(graph)
        assert view.same_arrays(fresh)
        assert view.source_fingerprint == fresh.source_fingerprint

    def test_path_engine_outputs_identical_on_mmap_view(self, tmp_path, graph):
        _, path = saved(ArtifactStore(tmp_path), graph)
        from_artifact = PathEngine(load_artifact(path))
        from_graph = PathEngine(compile_topology(graph))
        n = from_graph.topology.n
        assert (
            from_artifact.counts_range(0, n).tolist()
            == from_graph.counts_range(0, n).tolist()
        )
        assert (
            from_artifact.destination_counts_range(0, n).tolist()
            == from_graph.destination_counts_range(0, n).tolist()
        )
        some_source = sorted(graph.ases)[0]
        assert from_artifact.paths(some_source) == from_graph.paths(some_source)

    def test_store_addressed_by_fingerprint(self, tmp_path, graph):
        store = ArtifactStore(tmp_path)
        compiled, path = saved(store, graph)
        assert store.contains(compiled.source_fingerprint)
        assert store.path_for(compiled.source_fingerprint) == path
        loaded = store.load(compiled.source_fingerprint)
        assert loaded.same_arrays(compiled)


class TestPublishSemantics:
    def test_save_is_idempotent(self, tmp_path, graph):
        store = ArtifactStore(tmp_path)
        _, first = saved(store, graph)
        meta_mtime = (first / "meta.json").stat().st_mtime_ns
        _, second = saved(store, graph)
        assert second == first
        # The second save found the artifact and did not re-publish it.
        assert (first / "meta.json").stat().st_mtime_ns == meta_mtime

    def test_distinct_topologies_get_distinct_directories(self, tmp_path, graph):
        store = ArtifactStore(tmp_path)
        _, first = saved(store, graph)
        _, second = saved(store, figure1_topology())
        assert first != second

    def test_save_accepts_streamed_views(self, tmp_path, graph):
        streamed = compile_as_rel_lines(dump_as_rel_lines(graph))
        path = ArtifactStore(tmp_path).save(streamed)
        assert path == ArtifactStore(tmp_path).path_for(
            compile_topology(graph).source_fingerprint
        )
        assert load_artifact(path).same_arrays(compile_topology(graph))


class TestErrors:
    def test_missing_artifact_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="unreadable topology artifact"):
            load_artifact(tmp_path / "no-such-artifact")

    def test_load_of_unknown_fingerprint_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            ArtifactStore(tmp_path).load("0" * 64)

    def test_corrupt_meta_rejected(self, tmp_path, graph):
        _, path = saved(ArtifactStore(tmp_path), graph)
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        del meta["fingerprint"]
        (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ArtifactError, match="no fingerprint"):
            load_artifact(path)


class TestDefaultRoot:
    def test_env_var_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TOPOLOGY_STORE", str(tmp_path / "elsewhere"))
        assert default_store_root() == tmp_path / "elsewhere"
        assert ArtifactStore().root == tmp_path / "elsewhere"

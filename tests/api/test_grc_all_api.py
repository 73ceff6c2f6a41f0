"""API surface tests for the grc-all workflow.

Request validation mirrors the CLI wording, the result envelope round
trips, and a session-level run produces the same numbers sequentially
and sharded.
"""

import json

import pytest

from repro.api import GrcAllRequest, GrcAllResult, Session, ValidationError
from repro.api.results import render_grc_all_text
from repro.api.validate import validate_envelope

TINY = dict(tier1=2, tier2=3, tier3=5, stubs=12, seed=5)


class TestRequestValidation:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_non_positive_jobs_rejected(self, jobs):
        with pytest.raises(ValidationError, match="--jobs must be a positive integer"):
            GrcAllRequest(jobs=jobs)

    @pytest.mark.parametrize("shards", [0, -4])
    def test_non_positive_shards_rejected(self, shards):
        with pytest.raises(
            ValidationError, match="--shards must be a positive integer"
        ):
            GrcAllRequest(shards=shards)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="--seed must be non-negative"):
            GrcAllRequest(seed=-1)

    def test_defaults_validate(self):
        request = GrcAllRequest()
        assert request.jobs == 1
        assert request.shards is None
        assert request.topology is None

    def test_request_envelope_round_trips(self):
        request = GrcAllRequest(jobs=2, shards=4, **TINY)
        assert GrcAllRequest.from_json_dict(request.to_json_dict()) == request


class TestResultEnvelope:
    def _result(self, **overrides):
        values = dict(
            source="generated",
            topology_path=None,
            fingerprint="ab" * 32,
            jobs=1,
            shards=1,
            num_ases=22,
            total_paths=120,
            mean_paths=5.45,
            max_paths=14,
            mean_destinations=4.2,
            max_destinations=11,
            output=None,
        )
        values.update(overrides)
        return GrcAllResult(**values)

    def test_result_envelope_round_trips(self):
        result = self._result(output="grc.csv", topology_path="topo.txt")
        payload = json.loads(json.dumps(result.to_json_dict()))
        assert GrcAllResult.from_json_dict(payload) == result

    def test_envelope_validates(self):
        assert validate_envelope(self._result().to_json_dict()) == []

    def test_text_rendering_mentions_the_essentials(self):
        text = render_grc_all_text(self._result(output="grc.csv"))
        assert "grc-all" in text
        assert "ab" * 32 in text
        assert "120" in text
        assert "grc.csv" in text


class TestSessionRuns:
    def test_sequential_and_sharded_agree(self, tmp_path):
        session = Session()
        sequential = session.grc_all(GrcAllRequest(**TINY))
        sharded = session.grc_all(
            GrcAllRequest(
                jobs=2, artifact_dir=str(tmp_path / "store"), **TINY
            )
        )
        assert sharded.fingerprint == sequential.fingerprint
        assert sharded.total_paths == sequential.total_paths
        assert sharded.max_paths == sequential.max_paths
        assert sharded.shards >= 2

    def test_csv_output_written(self, tmp_path):
        out = tmp_path / "grc.csv"
        result = Session().grc_all(GrcAllRequest(output=str(out), **TINY))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "asn,paths,destinations"
        assert len(lines) == result.num_ases + 1

    def test_zero_cache_session_matches_the_caching_one(self, tmp_path):
        """A session that caches no topology drops the generated graph
        before the fingerprint is read; the fingerprint comes from the
        compiled arrays, so the run must not notice."""
        request = dict(tier1=3, tier2=5, tier3=8, stubs=10, seed=1)
        cached_csv, uncached_csv = tmp_path / "cached.csv", tmp_path / "uncached.csv"
        cached = Session().grc_all(GrcAllRequest(output=str(cached_csv), **request))
        uncached = Session(cache_limit=0).grc_all(
            GrcAllRequest(output=str(uncached_csv), **request)
        )
        assert uncached.fingerprint == cached.fingerprint
        assert uncached_csv.read_bytes() == cached_csv.read_bytes()

    def test_topology_file_input(self, tmp_path):
        from repro.api import TopologyRequest

        session = Session()
        topo = tmp_path / "topo.txt"
        session.topology(TopologyRequest(output=str(topo), **TINY))
        from_file = session.grc_all(GrcAllRequest(topology=str(topo)))
        generated = session.grc_all(GrcAllRequest(**TINY))
        assert from_file.fingerprint == generated.fingerprint
        assert from_file.source == "loaded"
        assert from_file.topology_path == str(topo)

    def test_unreadable_topology_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            Session().grc_all(GrcAllRequest(topology=str(tmp_path / "missing.txt")))

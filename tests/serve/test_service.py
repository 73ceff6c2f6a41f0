"""Service routing: envelopes in, envelopes out, cache discipline."""

import json

import pytest

import asyncio

from repro.api import NegotiateRequest, Session
from repro.api.validate import validate_envelope
from repro.serve.http import HttpRequest
from repro.serve.service import ServeService, serialize_envelope


def handle(service: ServeService, method: str, path: str, payload=None):
    status, body, _ = handle_full(service, method, path, payload)
    return status, body


def handle_full(service: ServeService, method: str, path: str, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    request = HttpRequest(method=method, path=path, query="", body=body)
    return asyncio.run(service.handle(request))


@pytest.fixture()
def service():
    return ServeService(Session(), cache_entries=8)


TINY_NEGOTIATE = {"num_choices": 10, "trials": 5, "seed": 3}


class TestIntrospectionRoutes:
    def test_health(self, service):
        status, body = handle(service, "GET", "/v1/health")
        assert status == 200
        document = json.loads(body)
        assert validate_envelope(document) == []
        assert document["status"] == "ok"

    def test_stats_envelope_validates(self, service):
        handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        status, body = handle(service, "GET", "/v1/stats")
        assert status == 200
        document = json.loads(body)
        assert validate_envelope(document) == []
        # The /stats request counts itself: negotiate + stats.
        assert document["requests_total"] == 2
        assert document["result_cache"]["misses"] == 1
        assert "truthful_nash_products" in document["session"]
        # The cross-worker fields of the merged view.
        assert document["worker_pid"] == service.board.pid
        assert str(service.board.pid) in document["workers"]
        assert document["jobs"]["queued"] == 0

    def test_health_rejects_post(self, service):
        status, body = handle(service, "POST", "/v1/health")
        assert status == 405
        assert json.loads(body)["exit_code"] == 2

    def test_every_response_names_its_worker(self, service):
        _, _, headers = handle_full(service, "GET", "/v1/health")
        assert headers["X-Repro-Worker"] == str(service.board.pid)


class TestVersionedRouting:
    def test_canonical_path_is_unmarked(self, service):
        status, body, headers = handle_full(service, "GET", "/v1/health")
        assert status == 200
        assert "Deprecation" not in headers
        assert "meta" not in json.loads(body)

    @pytest.mark.parametrize(
        ("method", "path"), [("GET", "/health"), ("POST", "/negotiate")]
    )
    def test_bare_paths_are_404_listing_the_v1_routes(self, service, method, path):
        status, body = handle(service, method, path, TINY_NEGOTIATE)
        assert status == 404
        document = json.loads(body)
        assert validate_envelope(document) == []
        assert document["kind"] == "error_result"
        assert "/v1/health" in document["error"]
        assert "POST /v1/{" in document["error"]


class TestWorkflowRoutes:
    def test_negotiate_matches_the_direct_session_bytes(self, service):
        status, body = handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        assert status == 200
        expected = serialize_envelope(
            Session().negotiate(NegotiateRequest(**TINY_NEGOTIATE)).to_json_dict()
        )
        assert body == expected
        assert validate_envelope(json.loads(body)) == []

    def test_v1_prefix_and_full_envelope_bodies(self, service):
        _, direct = handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        envelope_body = NegotiateRequest(**TINY_NEGOTIATE).to_json_dict()
        status, body = handle(service, "POST", "/v1/negotiate", envelope_body)
        assert status == 200
        assert body == direct

    def test_empty_body_means_defaults(self, service):
        status, body = handle(service, "POST", "/v1/topology")
        assert status == 200
        document = json.loads(body)
        assert validate_envelope(document) == []
        assert document["seed"] == 2021

    def test_repeat_request_hits_the_cache(self, service):
        _, first = handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        _, second = handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        assert second == first
        stats = service.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_diversity_cache_keys_on_topology_content(self, service, tmp_path):
        from repro.api import TopologyRequest

        path = tmp_path / "topo.as-rel.txt"
        tiny = dict(tier1=2, tier2=3, tier3=4, stubs=8)
        service.session.topology(TopologyRequest(seed=1, output=str(path), **tiny))
        payload = {"topology": str(path), "sample_size": 4, "seed": 1}
        handle(service, "POST", "/v1/diversity", payload)
        handle(service, "POST", "/v1/diversity", payload)
        assert service.cache.stats()["hits"] == 1
        # Same path, different *content*: the fingerprint key must miss
        # instead of replaying the stale body.
        service.session.topology(TopologyRequest(seed=2, output=str(path), **tiny))
        handle(service, "POST", "/v1/diversity", payload)
        stats = service.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_side_effecting_requests_bypass_the_cache(self, service, tmp_path):
        target = tmp_path / "t.as-rel.txt"
        payload = {
            "tier1": 2,
            "tier2": 3,
            "tier3": 4,
            "stubs": 5,
            "seed": 1,
            "output": str(target),
        }
        handle(service, "POST", "/v1/topology", payload)
        assert target.exists()
        target.unlink()
        # A bypassing request re-runs the workflow (and its write).
        status, _ = handle(service, "POST", "/v1/topology", payload)
        assert status == 200
        assert target.exists()
        assert service.cache.stats()["size"] == 0


class TestSharedDiskCache:
    def test_two_services_share_one_store(self, tmp_path):
        """A result computed by one process-alike is a disk hit for another."""
        first = ServeService(
            Session(),
            cache_entries=8,
            state_dir=tmp_path / "state",
        )
        _, body = handle(first, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        second = ServeService(
            Session(),
            cache_entries=8,
            state_dir=tmp_path / "state",
        )
        _, again = handle(second, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        assert again == body
        stats = second.cache.stats()
        assert stats["disk_hits"] == 1
        assert stats["misses"] == 1  # memory tier missed, disk tier served

    def test_cache_entries_zero_disables_both_tiers(self, tmp_path):
        service = ServeService(
            Session(),
            cache_entries=0,
            state_dir=tmp_path / "state",
        )
        handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        stats = service.cache.stats()
        assert stats["size"] == 0 and stats["store_writes"] == 0
        assert not (tmp_path / "state" / "results-cache").exists()


class TestErrorMapping:
    def test_unknown_path_is_404(self, service):
        status, body = handle(service, "POST", "/unknown")
        assert status == 404
        document = json.loads(body)
        assert validate_envelope(document) == []
        assert document["http_status"] == 404

    def test_validation_error_is_400_with_cli_exit_code(self, service):
        status, body = handle(
            service, "POST", "/v1/negotiate", {"num_choices": -1}
        )
        assert status == 400
        document = json.loads(body)
        assert validate_envelope(document) == []
        assert document["exit_code"] == 2
        assert "--num-choices must be a positive integer" in document["error"]

    def test_unknown_field_is_400(self, service):
        status, body = handle(service, "POST", "/v1/negotiate", {"bogus": 1})
        assert status == 400
        assert "unknown negotiate_request field" in json.loads(body)["error"]

    def test_malformed_json_body_is_400(self, service):
        request = HttpRequest(
            method="POST", path="/v1/negotiate", query="", body=b"{not json"
        )
        status, body, _ = asyncio.run(service.handle(request))
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_draining_service_answers_503(self, service):
        service.draining = True
        status, body = handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        assert status == 503
        document = json.loads(body)
        assert document["http_status"] == 503
        # /health still answers, reporting the drain.
        status, body = handle(service, "GET", "/v1/health")
        assert status == 200
        assert json.loads(body)["status"] == "draining"


class TestRequestLogFields:
    def test_log_records_cache_and_batch_fields(self, service, tmp_path):
        import os

        from repro.serve.log import RequestLog

        service.log = RequestLog(str(tmp_path / "requests.jsonl"))
        handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        handle(service, "POST", "/v1/negotiate", TINY_NEGOTIATE)
        handle(service, "GET", "/v1/stats")
        service.log.close()
        records = [
            json.loads(line)
            for line in (tmp_path / "requests.jsonl").read_text().splitlines()
        ]
        assert [validate_envelope(r) for r in records] == [[], [], []]
        miss, hit, stats = records
        assert miss["cache"] == "miss" and miss["batch_size"] == 1
        assert hit["cache"] == "hit" and "batch_size" not in hit
        assert stats["kind_handled"] == "serve_stats"
        assert all(r["latency_ms"] >= 0 for r in records)
        assert all(r["queue_depth"] == 0 for r in records)
        assert all(r["pid"] == os.getpid() for r in records)

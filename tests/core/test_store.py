"""The one content-addressed store: its key, its entries and its publish.

Keys: equal parameters give equal keys, and any parameter, namespace,
request kind, code version or input-file byte changes the key.
Entries: a missing, corrupt or misfiled entry is a miss.  Publish: no
temp survives, and a writer SIGKILLed mid-publish leaves no entry or
the complete one.  The last classes pin the same rules for every user
of the store: served results, sweep shards and topology artifacts.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from repro.api import Session
from repro.api.requests import (
    WORKFLOWS,
    DiversityRequest,
    NegotiateRequest,
    SimulateRequest,
    TopologyRequest,
)
from repro.core import store as store_module
from repro.core import compile_topology
from repro.core.artifacts import ArtifactStore
from repro.core.store import Store, code_version, input_files, publish, store_key
from repro.envelope import INPUT_FILE
from repro.serve.http import HttpRequest
from repro.serve.service import RESULT_NAMESPACE, ServeService
from repro.simulation.scenarios import SCENARIOS
from repro.sweep import SweepSpec, run_sweep, smoke_spec
from repro.sweep.executor import load_record
from repro.topology import generate_topology

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
SHARDS = smoke_spec().expand()
NEGOTIATE = NegotiateRequest(num_choices=10, trials=5, seed=3).to_json_dict()
TINY_TOPOLOGY = dict(tier1=2, tier2=3, tier3=4, stubs=8)


def request_key(request) -> str:
    """The key ``repro serve`` files a request's response under."""
    params = request.to_json_dict()
    return store_key(RESULT_NAMESPACE, params, input_files(type(request), params))


def other_code_version(monkeypatch) -> None:
    """Pretend the sources changed, without editing any."""
    monkeypatch.setattr(store_module, "code_version", lambda: "0" * 64)


#: A one-profile population, and an edit of it that adds a second one.
ONE_PROFILE = {"name": "pop", "default_profile": "dishonest"}
TWO_PROFILES = {
    "name": "pop",
    "default_profile": "honest",
    "groups": [{"profile": "dishonest", "match": {"role": "stub", "fraction": 0.5}}],
}


def population(path: Path, document: dict) -> Path:
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def serve(state_dir: Path) -> ServeService:
    return ServeService(
        Session(), cache_entries=8, state_dir=state_dir
    )


def post(service: ServeService, path: str, payload) -> tuple[int, bytes]:
    request = HttpRequest(
        method="POST", path=path, query="", body=json.dumps(payload).encode()
    )
    status, body, _ = asyncio.run(service.handle(request))
    return status, body


class TestStoreKey:
    @pytest.mark.parametrize(
        ("first", "second"),
        [
            pytest.param(
                NEGOTIATE,
                NegotiateRequest(seed=3, trials=5, num_choices=10).to_json_dict(),
                id="request",
            ),
            pytest.param(SHARDS[0].params(), smoke_spec().expand()[0].params(), id="shard"),
        ],
    )
    def test_equal_params_give_equal_keys(self, first, second):
        assert store_key("ns", first) == store_key("ns", second)

    @pytest.mark.parametrize(
        ("base", "changed"),
        [
            pytest.param(NEGOTIATE, dict(NEGOTIATE, num_choices=11), id="num_choices"),
            pytest.param(NEGOTIATE, dict(NEGOTIATE, trials=6), id="trials"),
            pytest.param(NEGOTIATE, dict(NEGOTIATE, seed=4), id="seed"),
            pytest.param(NEGOTIATE, dict(NEGOTIATE, distribution="u2"), id="distribution"),
            pytest.param(
                SHARDS[0].params(), dict(SHARDS[0].params(), seed=999), id="shard-seed"
            ),
            *(
                pytest.param(SHARDS[0].params(), shard.params(), id=shard.shard_id)
                for shard in SHARDS[1:]
            ),
        ],
    )
    def test_any_param_changes_the_key(self, base, changed):
        assert store_key("ns", changed) != store_key("ns", base)

    def test_kinds_and_namespaces_never_collide(self):
        # Same field values under different kinds must key differently.
        assert request_key(DiversityRequest()) != request_key(NegotiateRequest())
        assert store_key("a-v1", NEGOTIATE) != store_key("a-v2", NEGOTIATE)

    def test_code_version_changes_the_key(self, monkeypatch):
        before = store_key("ns", NEGOTIATE)
        other_code_version(monkeypatch)
        assert store_key("ns", NEGOTIATE) != before

    def test_code_version_is_memoized_and_wellformed(self):
        first = code_version()
        assert first == code_version()
        assert len(first) == 64
        int(first, 16)  # valid hex digest

    def test_input_file_content_changes_the_key(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("1|2|-1\n", encoding="utf-8")
        request = DiversityRequest(topology=str(path), sample_size=10, seed=1)
        first = request_key(request)
        assert first == request_key(request)
        path.write_text("1|3|-1\n", encoding="utf-8")  # same size, other bytes
        assert request_key(request) != first
        params = request.to_json_dict()
        assert store_key(RESULT_NAMESPACE, params) not in (first, request_key(request))

    def test_the_input_file_fields(self):
        classes = [w.request_type for w in WORKFLOWS.values()] + list(SCENARIOS.values())
        marked = {
            f"{cls.__name__}.{field.name}"
            for cls in classes
            for field in fields(cls)
            if field.metadata.items() >= INPUT_FILE.items()
        }
        assert marked == {
            "DiversityRequest.topology",
            "GrcAllRequest.topology",
            "SimulateRequest.population",
            "SweepRequest.spec",
            "HeterogeneousMarketplaceScenario.population",
        }
        scenario = SCENARIOS["marketplace-heterogeneous"]
        assert input_files(scenario, {"population": "p.json"}) == {"population": "p.json"}
        assert input_files(scenario, {"population": ""}) == {}
        assert input_files(SimulateRequest, SimulateRequest().to_json_dict()) == {}


class TestStore:
    def test_roundtrip_under_the_fan_out(self, tmp_path):
        store = Store(tmp_path / "s")
        key = store_key("ns", NEGOTIATE)
        store.put(key, b"entry-bytes\n")
        assert store.get(key) == b"entry-bytes\n"
        assert store.path(key) == tmp_path / "s" / key[:2] / key

    def test_missing_entry_is_none(self, tmp_path):
        assert Store(tmp_path).get(store_key("ns", {})) is None

    @pytest.mark.parametrize("kind", ["file", "directory"])
    def test_no_temp_left_behind(self, kind, tmp_path):
        if kind == "file":
            store = Store(tmp_path / "s")
            for index in range(5):
                store.put(store_key("ns", {"i": index}), b"x")
            expected = 5
        else:
            graph = generate_topology(
                num_tier1=2, num_tier2=3, num_tier3=4, num_stubs=8, seed=1
            ).graph
            path = ArtifactStore(tmp_path / "s").save(compile_topology(graph))
            assert path.parent.parent == tmp_path / "s"
            expected = 1
        entries = list((tmp_path / "s").glob("*/*"))
        assert len(entries) == expected
        assert not [p for p in entries if p.name.startswith(".")]

    @pytest.mark.parametrize("directory", [False, True], ids=["file", "directory"])
    def test_failed_write_removes_its_temp(self, directory, tmp_path):
        def write(tmp: Path) -> None:
            (tmp / "part" if directory else tmp).write_bytes(b"half")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            publish(tmp_path / "ab" / "entry", write, directory=directory)
        assert list((tmp_path / "ab").iterdir()) == []

    @pytest.mark.parametrize("damage", ["corrupt", "misfiled"])
    def test_corrupt_or_misfiled_entry_is_a_miss(self, damage, tmp_path):
        store = Store(tmp_path)
        key, other = store_key("ns", {"k": 1}), store_key("ns", {"k": 2})
        store.put(key, json.dumps({"key": key, "metrics": {}}).encode())
        assert load_record(store, key) == {"key": key, "metrics": {}}
        if damage == "corrupt":
            store.path(key).write_text('{"truncated": ')
        else:
            # An entry copied under another key must not be served.
            store.put(other, store.get(key))
            key = other
        assert load_record(store, key) is None

    def test_sigkilled_writer_leaves_no_torn_entry(self, tmp_path):
        """SIGKILL a child mid-publish of 8 MiB entries, at several delays.

        Every visible entry must hold the complete bytes; a kill may
        only leave a hidden temp behind.
        """
        writer = (
            "import sys\n"
            "from repro.core.store import Store\n"
            "store, data = Store(sys.argv[1]), bytes(range(256)) * 32768\n"
            "print('ready', flush=True)\n"
            "for index in range(10**6):\n"
            "    store.put(f'{index:064x}', data)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        expected = bytes(range(256)) * 32768
        torn = 0
        for round_, delay in enumerate((0.0, 0.01, 0.03, 0.07, 0.15)):
            root = tmp_path / f"round{round_}"
            child = subprocess.Popen(
                [sys.executable, "-c", writer, str(root)],
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            assert child.stdout.readline().strip() == "ready"
            time.sleep(delay)
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=10)
            child.stdout.close()
            entries = list(root.glob("*/*"))
            torn += sum(entry.name.startswith(".") for entry in entries)
            for entry in entries:
                if not entry.name.startswith("."):
                    assert entry.read_bytes() == expected, entry
        # At least one kill landed mid-write, so a torn temp existed.
        assert torn >= 1


class TestStaleHits:
    """Every user of the store misses after a code or input-file change."""

    def test_serve_results_miss_under_another_code_version(self, tmp_path, monkeypatch):
        post(serve(tmp_path / "state"), "/v1/negotiate", NEGOTIATE)
        other_code_version(monkeypatch)
        upgraded = serve(tmp_path / "state")
        status, _ = post(upgraded, "/v1/negotiate", NEGOTIATE)
        assert status == 200
        stats = upgraded.cache.stats()
        assert stats["disk_hits"] == 0 and stats["disk_misses"] == 1

    def test_sweep_shards_miss_under_another_code_version(self, tmp_path, monkeypatch):
        spec = SweepSpec.from_mapping(
            {
                "name": "t",
                "scales": ["tiny"],
                "seeds": [1],
                "scenarios": [
                    {"scenario": "failure-churn", "label": "churn", "duration": 2.0}
                ],
            }
        )
        dirs = dict(cache_dir=tmp_path / "c", out_dir=tmp_path / "o")
        assert run_sweep(spec, **dirs).executed == ("scenario/churn/tiny/seed1",)
        assert run_sweep(spec, **dirs).executed == ()
        other_code_version(monkeypatch)
        assert run_sweep(spec, **dirs).executed == ("scenario/churn/tiny/seed1",)

    def test_artifacts_miss_under_another_code_version(self, tmp_path, monkeypatch):
        graph = generate_topology(
            num_tier1=2, num_tier2=3, num_tier3=4, num_stubs=8, seed=1
        ).graph
        store = ArtifactStore(tmp_path)
        compiled = compile_topology(graph)
        path = store.save(compiled)
        fingerprint = compiled.source_fingerprint
        assert store.contains(fingerprint)
        other_code_version(monkeypatch)
        assert store.path_for(fingerprint) != path
        assert not store.contains(fingerprint)

    def test_edited_population_recomputes_its_sweep_shard(self, tmp_path):
        pop = population(tmp_path / "pop.json", ONE_PROFILE)
        spec = SweepSpec.from_mapping(
            {
                "name": "pop",
                "scales": ["tiny"],
                "seeds": [1],
                "scenarios": [
                    {
                        "scenario": "marketplace-heterogeneous",
                        "label": "pop",
                        "duration": 24.0,
                        "population": str(pop),
                    }
                ],
            }
        )
        dirs = dict(cache_dir=tmp_path / "c", out_dir=tmp_path / "o")
        first = run_sweep(spec, **dirs)
        assert run_sweep(spec, **dirs).reused == first.executed
        population(pop, TWO_PROFILES)
        second = run_sweep(spec, **dirs)
        assert second.executed == first.executed
        (before,), (after,) = first.summary["shards"], second.summary["shards"]
        assert before["metrics"]["records.profile_metrics"] == 1
        assert after["metrics"]["records.profile_metrics"] == 2

    def test_population_simulate_hits_then_misses_when_edited(self, tmp_path):
        pop = population(tmp_path / "pop.json", ONE_PROFILE)
        payload = {
            "scenario": "marketplace-heterogeneous",
            "population": str(pop),
            "duration": 24.0,
            "seed": 1,
        }
        service = serve(tmp_path / "state")
        _, first = post(service, "/v1/simulate", payload)
        _, again = post(service, "/v1/simulate", payload)
        assert again == first
        assert service.cache.stats()["hits"] == 1
        population(pop, TWO_PROFILES)
        # A fresh worker on the same state dir: the disk tier misses too.
        fresh = serve(tmp_path / "state")
        status, edited = post(fresh, "/v1/simulate", payload)
        assert status == 200 and edited != first
        assert fresh.cache.stats()["disk_misses"] == 1

    def test_edited_topology_makes_diversity_miss(self, tmp_path):
        path = tmp_path / "topo.as-rel.txt"
        session = Session()
        session.topology(TopologyRequest(seed=1, output=str(path), **TINY_TOPOLOGY))
        payload = {"topology": str(path), "sample_size": 4, "seed": 1}
        _, first = post(serve(tmp_path / "state"), "/v1/diversity", payload)
        session.topology(TopologyRequest(seed=2, output=str(path), **TINY_TOPOLOGY))
        fresh = serve(tmp_path / "state")
        status, edited = post(fresh, "/v1/diversity", payload)
        assert status == 200 and edited != first
        stats = fresh.cache.stats()
        assert stats["disk_hits"] == 0 and stats["disk_misses"] == 1

    @pytest.mark.parametrize(
        ("route", "payload", "field"),
        [
            ("/v1/diversity", {"topology": "absent.txt"}, "topology absent.txt"),
            (
                "/v1/simulate",
                {"scenario": "marketplace-heterogeneous", "population": "absent.json"},
                "population absent.json",
            ),
        ],
    )
    def test_missing_input_file_is_a_400_naming_the_field(
        self, route, payload, field, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        status, body = post(serve(tmp_path / "state"), route, payload)
        document = json.loads(body)
        assert status == 400 and document["exit_code"] == 2
        assert f"cannot read {field}: No such file" in document["error"]

    def test_missing_sweep_population_is_exit_2_naming_the_field(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        spec = {
            "name": "absent",
            "scales": ["tiny"],
            "seeds": [1],
            "scenarios": [
                {"scenario": "marketplace-heterogeneous", "population": "absent.json"}
            ],
        }
        (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        assert main(["sweep", "--spec", "spec.json"]) == 2
        err = capsys.readouterr().err
        assert "cannot read population absent.json: No such file" in err

"""JSON envelope round-trips: to_json_dict → from_json_dict → equal.

Every round trip also passes the value through ``json.dumps``/
``json.loads`` so only strict-JSON-serializable payloads pass, exactly
what a consumer on the other side of a pipe would see.
"""

import json

import pytest

from repro.api import (
    SCHEMA_VERSION,
    DiversityRequest,
    DiversityResult,
    DiversityScenarioRow,
    EnvelopeError,
    ExperimentsRequest,
    ExperimentsResult,
    PaperComparison,
    SectionResult,
    SectionSeries,
    SectionTable,
    Session,
    SimulateRequest,
    SimulateResult,
    SweepListResult,
    SweepRequest,
    SweepResult,
    TopologyRequest,
    TopologyResult,
)
from repro.simulation import ScenarioResult, run_scenario


def roundtrip(value):
    """to_json_dict → JSON text → from_json_dict."""
    data = json.loads(json.dumps(value.to_json_dict()))
    return type(value).from_json_dict(data)


def make_section() -> SectionResult:
    return SectionResult(
        key="fig9",
        title="Fig. 9 — imaginary",
        comparisons=(
            PaperComparison(
                metric="m", paper_value="1", measured_value="2", note="n"
            ),
        ),
        preamble=("a line",),
        table=SectionTable(headers=("a", "b"), rows=(("1", "2"), ("3", "4"))),
        series_caption="CDF:",
        series=(SectionSeries(name="s", xs=(1.0, 2.0), ys=(0.5, 1.0)),),
        metrics={"x": 1.5, "n": 3, "flag": True, "missing": None},
    )


class TestEnvelopeHeader:
    def test_envelopes_carry_schema_version_and_kind(self):
        data = make_section().to_json_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["kind"] == "section_result"

    def test_wrong_kind_is_rejected(self):
        data = make_section().to_json_dict()
        with pytest.raises(EnvelopeError, match="expected envelope kind"):
            ExperimentsResult.from_json_dict(data)

    def test_wrong_schema_version_is_rejected(self):
        data = make_section().to_json_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(EnvelopeError, match="unsupported schema_version"):
            SectionResult.from_json_dict(data)

    def test_missing_required_key_is_rejected(self):
        data = make_section().to_json_dict()
        del data["key"]
        with pytest.raises(EnvelopeError, match="missing required key"):
            SectionResult.from_json_dict(data)

    def test_every_unconditionally_read_key_is_required(self):
        """A short envelope fails with EnvelopeError, never a KeyError."""
        data = {
            "schema_version": SCHEMA_VERSION,
            "kind": "topology_result",
            "num_ases": 64,
            "num_transit_links": 99,
            "num_peering_links": 193,
            "graph_description": "ASGraph(...)",
        }
        with pytest.raises(EnvelopeError, match="missing required key"):
            TopologyResult.from_json_dict(data)
        data = {
            "schema_version": SCHEMA_VERSION,
            "kind": "diversity_result",
            "source": "generated",
            "graph_description": "ASGraph(...)",
            "num_agreements": 1,
            "rows": [],
        }
        with pytest.raises(EnvelopeError, match="missing required key"):
            DiversityResult.from_json_dict(data)


class TestRequestRoundTrips:
    @pytest.mark.parametrize(
        "request_value",
        [
            TopologyRequest(tier1=3, tier2=6, tier3=15, stubs=40, seed=3, output="x"),
            DiversityRequest(sample_size=10, seed=1),
            DiversityRequest(topology="topo.txt", sample_size=5, seed=0),
            ExperimentsRequest(full=True, seed=7, trials=3, jobs=2),
            SimulateRequest(scenario="marketplace", seed=9, duration=48.0),
            SweepRequest(smoke=True, jobs=2, list_shards=True),
        ],
    )
    def test_request_round_trips(self, request_value):
        assert roundtrip(request_value) == request_value

    def test_round_trip_revalidates(self):
        data = ExperimentsRequest(jobs=2).to_json_dict()
        data["jobs"] = 0
        from repro.api import ValidationError

        with pytest.raises(ValidationError, match="--jobs"):
            ExperimentsRequest.from_json_dict(data)


class TestResultRoundTrips:
    def test_section_result(self):
        assert roundtrip(make_section()) == make_section()

    def test_topology_result(self):
        result = TopologyResult(
            tier1=3,
            tier2=6,
            tier3=15,
            stubs=40,
            seed=3,
            num_ases=64,
            num_transit_links=99,
            num_peering_links=193,
            graph_description="ASGraph(ases=64, ...)",
            output="topo.txt",
        )
        assert roundtrip(result) == result

    def test_diversity_result(self):
        result = DiversityResult(
            source="generated",
            topology_path=None,
            graph_description="ASGraph(...)",
            num_agreements=193,
            sample_size=10,
            seed=1,
            rows=(
                DiversityScenarioRow("GRC", 42.0, 37.0),
                DiversityScenarioRow("MA", 120.5, 50.25),
            ),
            additional_paths_mean=88.0,
            additional_paths_max=236.0,
        )
        assert roundtrip(result) == result

    def test_experiments_result(self):
        result = ExperimentsResult(
            full=False,
            seed=7,
            trials=3,
            jobs=2,
            sections=(make_section(),),
        )
        assert roundtrip(result) == result

    def test_simulate_result(self):
        result = SimulateResult(
            name="failure-churn",
            seed=1,
            duration=6.0,
            events_processed=120,
            num_trace_records=40,
            kinds={"availability_sample": 36, "link_event": 4},
            headline=("line one", "line two"),
            trace_out=None,
        )
        assert roundtrip(result) == result

    def test_sweep_results(self):
        run = SweepResult(
            name="smoke",
            executed=("a", "b"),
            reused=("c",),
            summary_path="out/sweep_summary.json",
            num_tables=4,
            summary={"name": "smoke", "shards": []},
        )
        assert roundtrip(run) == run
        listing = SweepListResult(name="smoke", shard_ids=("a", "b", "c"))
        assert roundtrip(listing) == listing


class TestEngineLevelEnvelopes:
    def test_scenario_result_round_trips_with_full_trace(self):
        result = run_scenario("flash-crowd", seed=4, duration=30.0)
        restored = ScenarioResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert restored == result
        assert restored.trace_text() == result.trace_text()

    def test_scenario_result_stays_hashable(self):
        """Trace value-equality must not break the frozen container's hash."""
        result = run_scenario("flash-crowd", seed=4, duration=30.0)
        assert isinstance(hash(result), int)

    def test_live_session_results_round_trip(self):
        """End-to-end: real session results survive the envelope."""
        session = Session()
        simulate = session.simulate(
            SimulateRequest(scenario="flash-crowd", seed=4, duration=30.0)
        )
        assert roundtrip(simulate) == simulate
        diversity = session.diversity(
            DiversityRequest(
                sample_size=10, seed=1, tier1=3, tier2=6, tier3=15, stubs=40
            )
        )
        assert roundtrip(diversity) == diversity


class TestNegotiateEnvelopes:
    def test_request_round_trips(self):
        from repro.api import NegotiateRequest

        request = NegotiateRequest(
            distribution="u2", num_choices=12, trials=6, seed=11
        )
        assert roundtrip(request) == request

    def test_request_round_trip_revalidates(self):
        from repro.api import NegotiateRequest, ValidationError

        data = NegotiateRequest().to_json_dict()
        data["distribution"] = "u9"
        with pytest.raises(ValidationError, match="unknown distribution"):
            NegotiateRequest.from_json_dict(data)

    def test_result_round_trips_bit_exactly(self):
        from repro.api import NegotiateRequest

        result = Session().negotiate(
            NegotiateRequest(num_choices=10, trials=4, seed=3)
        )
        restored = roundtrip(result)
        assert restored == result  # float equality: JSON must not round

    def test_result_envelope_validates(self):
        from repro.api import NegotiateRequest
        from repro.api.validate import validate_envelope

        result = Session().negotiate(
            NegotiateRequest(num_choices=10, trials=4, seed=3)
        )
        assert validate_envelope(json.loads(json.dumps(result.to_json_dict()))) == []

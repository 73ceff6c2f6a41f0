"""Session semantics: warm reuse of expensive state across calls."""

import pytest

from repro.api import (
    DiversityRequest,
    OutputError,
    Session,
    SimulateRequest,
    SweepRequest,
    TopologyRequest,
)
from repro.api.results import (
    render_diversity_text,
    render_experiments_text,
    render_simulate_text,
)

TINY = dict(tier1=3, tier2=6, tier3=15, stubs=40)


class TestTopologyWorkflow:
    def test_generates_and_caches_by_parameters(self):
        session = Session()
        request = TopologyRequest(seed=3, **TINY)
        first = session.topology(request)
        assert first.num_ases == 3 + 6 + 15 + 40
        # The same parameters must be served from the session cache.
        assert session._generated[request.cache_key()] is not None
        cached = session._generated[request.cache_key()]
        session.topology(request)
        assert session._generated[request.cache_key()] is cached

    def test_writes_a_loadable_as_rel_file(self, tmp_path):
        from repro.topology import load_as_rel

        target = tmp_path / "topo.as-rel.txt"
        result = Session().topology(TopologyRequest(seed=3, output=str(target), **TINY))
        assert result.output == str(target)
        assert len(load_as_rel(target)) == result.num_ases

    def test_unwritable_output_raises_output_error(self, tmp_path):
        with pytest.raises(OutputError, match="cannot write topology"):
            Session().topology(
                TopologyRequest(seed=3, output=str(tmp_path / "no" / "t.txt"), **TINY)
            )


class TestDiversityWorkflow:
    def test_warm_call_reuses_topology_and_artifacts(self):
        session = Session()
        request = DiversityRequest(sample_size=10, seed=1, **TINY)
        first = session.diversity(request)
        graph_cache = dict(session._generated)
        artifact_cache = dict(session._artifacts)
        second = session.diversity(request)
        assert second == first
        # Neither the topology nor the agreements/index were rebuilt.
        assert session._generated == graph_cache
        for key, value in artifact_cache.items():
            assert session._artifacts[key] is value

    def test_matches_the_cold_one_shot_analysis(self):
        """The session must not change results, only amortize them."""
        from repro.agreements import enumerate_mutuality_agreements
        from repro.paths import analyze_path_diversity, build_ma_path_index
        from repro.topology import generate_topology

        graph = generate_topology(
            num_tier1=3, num_tier2=6, num_tier3=15, num_stubs=40, seed=1
        ).graph
        agreements = list(enumerate_mutuality_agreements(graph))
        cold = analyze_path_diversity(
            graph, index=build_ma_path_index(agreements), sample_size=10, seed=1
        )
        warm = Session().diversity(DiversityRequest(sample_size=10, seed=1, **TINY))
        assert warm.num_agreements == len(agreements)
        for row in warm.rows:
            assert row.mean_paths == cold.path_cdf(row.scenario).mean
            assert row.mean_destinations == cold.destination_cdf(row.scenario).mean

    def test_constructs_no_agreement_objects(self, agreement_inits):
        result = Session().diversity(DiversityRequest(sample_size=10, seed=1, **TINY))
        assert agreement_inits == []
        assert result.num_agreements > 0

    def test_loaded_topology_is_cached_but_not_stale(self, tmp_path):
        session = Session()
        target = tmp_path / "topo.as-rel.txt"
        session.topology(TopologyRequest(seed=3, output=str(target), **TINY))
        request = DiversityRequest(topology=str(target), sample_size=5, seed=1)
        first = session.diversity(request)
        assert first.source == "loaded"
        assert session.diversity(request) == first

    def test_missing_topology_file_is_a_validation_error(self):
        from repro.api import ValidationError

        with pytest.raises(ValidationError, match="cannot read topology"):
            Session().diversity(DiversityRequest(topology="/does/not/exist"))

    def test_text_rendering_mentions_the_source(self):
        result = Session().diversity(DiversityRequest(sample_size=5, seed=1, **TINY))
        text = render_diversity_text(result)
        assert text.startswith("generated synthetic topology: ")
        assert "mutuality-based agreements:" in text
        assert "additional paths per AS:" in text


def tiny_runner_config(seed=13):
    """A combined-runner configuration small enough for the test suite."""
    from repro.experiments.fig2_pod import Fig2Config
    from repro.experiments.fig3_paths import PathDiversityConfig
    from repro.experiments.fig5_geodistance import Fig5Config
    from repro.experiments.fig6_bandwidth import Fig6Config
    from repro.experiments.runner import RunnerConfig

    class TinyRunnerConfig(RunnerConfig):
        def fig2(self):
            return Fig2Config(choice_counts=(10,), trials=4)

        def diversity(self):
            return PathDiversityConfig(
                num_tier1=3,
                num_tier2=8,
                num_tier3=25,
                num_stubs=70,
                sample_size=25,
                seed=1,
            )

        def fig5(self):
            return Fig5Config(diversity=self.diversity(), pair_sample_size=10)

        def fig6(self):
            return Fig6Config(diversity=self.diversity(), pair_sample_size=10)

    return TinyRunnerConfig(seed=seed)


class TestExperimentsWorkflow:
    @pytest.fixture(scope="class")
    def tiny_sections(self):
        from repro.experiments.runner import run_sections

        return run_sections(tiny_runner_config())

    def test_session_reuses_the_experiment_context(self):
        session = Session()
        config = tiny_runner_config()
        first = session.context_for(config.diversity())
        assert session.context_for(config.diversity()) is first

    def test_experiment_context_dies_with_its_session(self):
        import gc
        import weakref

        diversity = tiny_runner_config(seed=23).diversity()
        session = Session()
        context = weakref.ref(session.context_for(diversity))
        gc.collect()
        assert context() is not None  # the session cache holds it
        session.close()
        gc.collect()
        assert context() is None

    def test_zero_capacity_sessions_never_share_a_context(self):
        diversity = tiny_runner_config(seed=29).diversity()
        first = Session(cache_limit=0).context_for(diversity)
        assert Session(cache_limit=0).context_for(diversity) is not first

    def test_structured_sections_render_to_the_classic_report(self, tiny_sections):
        from repro.experiments.reporting import render_report
        from repro.experiments.runner import run_all

        assert render_report(tiny_sections) == run_all(tiny_runner_config())

    def test_sections_expose_keys_and_metrics(self, tiny_sections):
        keys = [section.key for section in tiny_sections]
        assert keys == ["stability", "fig2", "fig3", "fig4", "fig5", "fig6"]
        fig3 = tiny_sections[2]
        assert fig3.metrics["num_agreements"] > 0
        assert fig3.table is not None
        assert fig3.series  # raw CDF floats travel with the section

    def test_experiments_result_section_lookup(self, tiny_sections):
        from repro.api import ExperimentsResult

        result = ExperimentsResult(
            full=False, seed=13, trials=None, jobs=1, sections=tiny_sections
        )
        assert result.section("fig5").title.startswith("Fig. 5")
        with pytest.raises(KeyError):
            result.section("fig7")
        assert render_experiments_text(result).startswith("\n\n== §II")


class TestSimulateWorkflow:
    def test_summary_matches_the_engine_result(self):
        from repro.simulation import run_scenario

        request = SimulateRequest(scenario="flash-crowd", seed=4, duration=30.0)
        result = Session().simulate(request)
        engine_result = run_scenario("flash-crowd", seed=4, duration=30.0)
        assert render_simulate_text(result) == engine_result.summary()
        assert result.scenario_result is not None
        assert result.scenario_result.trace_text() == engine_result.trace_text()

    def test_trace_out_is_written(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        result = Session().simulate(
            SimulateRequest(
                scenario="flash-crowd", seed=4, duration=30.0, trace_out=str(target)
            )
        )
        assert target.read_text(encoding="utf-8") == result.scenario_result.trace_text()

    def test_unwritable_trace_raises_output_error(self, tmp_path):
        with pytest.raises(OutputError, match="cannot write trace"):
            Session().simulate(
                SimulateRequest(
                    scenario="flash-crowd",
                    duration=1.0,
                    trace_out=str(tmp_path / "no" / "t.jsonl"),
                )
            )


class TestSweepWorkflow:
    def test_list_shards_expands_without_running(self):
        result = Session().sweep(SweepRequest(smoke=True, list_shards=True))
        assert result.name == "smoke"
        assert len(result.shard_ids) == 18
        assert "scenario/churn-base/tiny/seed1" in result.shard_ids

    def test_bad_spec_file_is_a_validation_error(self, tmp_path):
        from repro.api import ValidationError

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        with pytest.raises(ValidationError):
            Session().sweep(SweepRequest(spec=str(bad)))


class TestNegotiateWorkflow:
    def test_negotiate_reports_converged_pod_statistics(self):
        from repro.api import NegotiateRequest

        result = Session().negotiate(NegotiateRequest(num_choices=10, trials=5, seed=3))
        assert result.converged_trials + result.skipped_trials == 5
        assert result.min_pod <= result.mean_pod <= result.max_pod
        assert 0.0 < result.best_expected_nash_product <= result.truthful_nash_product

    def test_truthful_value_is_one_memo_across_sessions(self):
        from repro.api import NegotiateRequest
        from repro.bargaining.efficiency import expected_truthful_nash_product

        expected_truthful_nash_product.cache_clear()
        first = Session().negotiate(NegotiateRequest(num_choices=10, trials=3, seed=1))
        second = Session().negotiate(NegotiateRequest(num_choices=12, trials=3, seed=2))
        info = expected_truthful_nash_product.cache_info()
        assert info.currsize == 1 and info.misses == 1 and info.hits >= 1
        assert first.truthful_nash_product == second.truthful_nash_product

    def test_negotiate_many_is_bit_identical_to_solo_calls(self):
        """The coalescing contract: batching must be invisible."""
        from repro.api import NegotiateRequest

        requests = [
            NegotiateRequest(num_choices=10, trials=4, seed=seed)
            for seed in (3, 11, 29)
        ]
        batched = Session().negotiate_many(requests)
        solo = [Session().negotiate(request) for request in requests]
        assert batched == solo  # dataclass equality over every float bit

    def test_negotiate_many_rejects_mixed_coalesce_keys(self):
        from repro.api import NegotiateRequest, ValidationError

        with pytest.raises(ValidationError, match="one coalesce group"):
            Session().negotiate_many(
                [
                    NegotiateRequest(num_choices=10, trials=2, seed=1),
                    NegotiateRequest(num_choices=20, trials=2, seed=1),
                ]
            )

    def test_negotiate_many_of_nothing_is_nothing(self):
        assert Session().negotiate_many([]) == []


class TestSessionLifecycle:
    def test_context_manager_closes_and_workflows_raise(self):
        from repro.api import NegotiateRequest, ServiceError

        with Session() as session:
            session.negotiate(NegotiateRequest(num_choices=10, trials=2, seed=1))
            assert not session.closed
        assert session.closed
        with pytest.raises(ServiceError, match="session is closed"):
            session.negotiate(NegotiateRequest(num_choices=10, trials=2, seed=1))

    def test_close_is_idempotent_and_drops_caches(self):
        session = Session()
        session.topology(TopologyRequest(seed=3, **TINY))
        assert session.cache_stats()["generated_topologies"]["size"] == 1
        session.close()
        session.close()
        assert session.cache_stats()["generated_topologies"]["size"] == 0

    def test_cache_limit_bounds_warm_state(self):
        session = Session(cache_limit=2)
        for seed in range(4):
            session.topology(TopologyRequest(seed=seed, **TINY))
        stats = session.cache_stats()["generated_topologies"]
        assert stats["size"] == 2
        assert stats["evictions"] == 2

    def test_cache_stats_covers_every_cache(self):
        stats = Session().cache_stats()
        assert sorted(stats) == [
            "diversity_artifacts",
            "experiment_contexts",
            "generated_topologies",
            "loaded_topologies",
        ]
        for counters in stats.values():
            assert counters == {
                "size": 0,
                "max_entries": None,
                "hits": 0,
                "misses": 0,
                "evictions": 0,
            }

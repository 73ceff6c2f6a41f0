"""Tests for the combined experiment runner (tiny configuration)."""

from repro.experiments.fig2_pod import Fig2Config
from repro.experiments.fig3_paths import PathDiversityConfig
from repro.experiments.fig5_geodistance import Fig5Config
from repro.experiments.fig6_bandwidth import Fig6Config
from repro.experiments.reporting import render_section
from repro.experiments.runner import RunnerConfig, _section_stability


class TinyRunnerConfig(RunnerConfig):
    """Runner configuration small enough for the test suite."""

    def fig2(self) -> Fig2Config:
        return Fig2Config(choice_counts=(10,), trials=4)

    def diversity(self) -> PathDiversityConfig:
        return PathDiversityConfig(
            num_tier1=3, num_tier2=8, num_tier3=25, num_stubs=70, sample_size=25, seed=1
        )

    def fig5(self) -> Fig5Config:
        return Fig5Config(diversity=self.diversity(), pair_sample_size=10)

    def fig6(self) -> Fig6Config:
        return Fig6Config(diversity=self.diversity(), pair_sample_size=10)


class TestRunnerConfig:
    def test_default_config_sizes(self):
        config = RunnerConfig()
        assert config.fig2().trials < 200
        assert config.diversity().sample_size <= 200

    def test_full_config_matches_paper_scale(self):
        config = RunnerConfig(full=True)
        assert config.fig2().trials == 200
        assert config.diversity().sample_size == 500

    def test_trials_override_reaches_fig2(self):
        """`repro experiments --trials 200` is the paper-scale Fig. 2 run."""
        assert RunnerConfig(trials=200).fig2().trials == 200
        assert RunnerConfig(full=True, trials=13).fig2().trials == 13
        config = RunnerConfig(seed=3, trials=50).fig2()
        assert config.seed == 3
        assert config.trials == 50

    def test_seed_overrides_every_experiment(self):
        config = RunnerConfig(seed=99)
        assert config.fig2().seed == 99
        assert config.diversity().seed == 99
        assert config.fig5().diversity.seed == 99
        assert config.fig5().geography_seed == 99
        assert config.fig6().diversity.seed == 99

    def test_seed_reaches_all_five_figure_configs(self):
        """Regression: fig6 used to silently drop the runner seed override.

        Every figure config must carry the override in *every* seed
        field it owns, not only the shared diversity sub-config.
        """
        config = RunnerConfig(seed=41)
        assert config.fig2().seed == 41  # Fig. 2
        assert config.diversity().seed == 41  # Figs. 3 and 4
        fig5 = config.fig5()  # Fig. 5
        assert fig5.diversity.seed == 41
        assert fig5.geography_seed == 41
        fig6 = config.fig6()  # Fig. 6
        assert fig6.diversity.seed == 41

    def test_no_seed_keeps_the_per_experiment_defaults(self):
        config = RunnerConfig()
        assert config.fig2().seed == 7
        assert config.diversity().seed == 2021
        assert config.fig5().geography_seed == 11

    def test_seed_composes_with_full(self):
        config = RunnerConfig(full=True, seed=3)
        assert config.fig2().trials == 200
        assert config.fig2().seed == 3
        assert config.diversity().sample_size == 500
        assert config.diversity().seed == 3


class TestStabilitySection:
    def test_section_mentions_both_gadgets(self):
        text = render_section(_section_stability(RunnerConfig()))
        assert "DISAGREE" in text
        assert "BAD GADGET" in text
        assert "oscillation detected = True" in text


class TestRunAll:
    def test_combined_report_contains_every_figure(self):
        from repro.experiments.runner import run_all

        report = run_all(TinyRunnerConfig())
        for heading in (
            "§II — BGP stability gadgets",
            "Fig. 2 — Price of Dishonesty",
            "Fig. 3 — length-3 paths per AS",
            "Fig. 4 — nearby destinations per AS",
            "Fig. 5 — geodistance of MA paths",
            "Fig. 6 — bandwidth of MA paths",
        ):
            assert heading in report

    def test_parallel_run_is_byte_identical_to_sequential(self):
        from repro.experiments.runner import run_all

        config = TinyRunnerConfig(seed=13)
        assert run_all(config, jobs=3) == run_all(config, jobs=1)

    def test_parallel_sections_write_nothing_to_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.reporting import render_report
        from repro.experiments.runner import run_sections

        monkeypatch.chdir(tmp_path)
        config = TinyRunnerConfig(seed=5)
        parallel = render_report(run_sections(config, jobs=2))
        assert parallel == render_report(run_sections(config, jobs=1))
        assert list(tmp_path.iterdir()) == []

    def test_jobs_must_be_positive(self):
        import pytest

        from repro.experiments.runner import run_all

        with pytest.raises(ValueError):
            run_all(TinyRunnerConfig(), jobs=0)

"""Tests for the canned scenarios: behaviour and reproducibility."""

import pytest

from repro.errors import ValidationError
from repro.simulation import (
    SCENARIOS,
    AgreementMarketplaceScenario,
    FailureChurnScenario,
    FlashCrowdScenario,
    run_scenario,
)


def small_churn(seed: int = 5) -> FailureChurnScenario:
    """A failure-churn configuration small enough for the test suite."""
    return FailureChurnScenario(
        seed=seed,
        duration=24.0,
        num_tier2=4,
        num_tier3=8,
        num_stubs=14,
        num_pairs=4,
        mean_time_to_failure=40.0,
        mean_time_to_repair=3.0,
    )


class TestFailureChurn:
    def test_pan_availability_dominates_bgp(self):
        result = small_churn().run()
        trace = result.trace
        assert trace.of_kind("link_event"), "expected churn over the horizon"
        assert trace.availability("PAN") >= trace.availability("BGP")

    def test_summary_reports_both_architectures(self):
        result = small_churn().run()
        summary = result.summary()
        assert "BGP" in summary and "PAN" in summary
        assert "PAN >= BGP availability: True" in summary

    def test_same_seed_byte_identical_trace(self):
        trace_a = small_churn(seed=9).run().trace_text()
        trace_b = small_churn(seed=9).run().trace_text()
        assert trace_a == trace_b

    def test_different_seed_changes_the_trace(self):
        trace_a = small_churn(seed=9).run().trace_text()
        trace_b = small_churn(seed=10).run().trace_text()
        assert trace_a != trace_b


class TestMarketplace:
    def test_agreements_are_billed_and_renegotiated(self):
        result = AgreementMarketplaceScenario(
            duration=24.0 * 15.0, term_duration=24.0 * 5.0, metering_interval=2.0
        ).run()
        trace = result.trace
        assert trace.of_kind("negotiation")
        assert trace.of_kind("billing")
        assert trace.revenue_by_as()
        # Renegotiation keeps the marketplace turning: more activations
        # than peering pairs.
        activations = trace.of_kind("agreement_activated")
        pairs = {tuple(r.data["pair"]) for r in activations}
        assert len(activations) > len(pairs)


class TestFlashCrowd:
    def test_crowd_inflates_the_p95_bill(self):
        calm = FlashCrowdScenario(crowd_multiplier=1.0).run()
        spiky = FlashCrowdScenario(crowd_multiplier=6.0).run()

        def billed(result):
            record = result.trace.of_kind("billing")[0]
            return max(
                float(record.data["billed_volume_x"]),
                float(record.data["billed_volume_y"]),
            )

        assert billed(spiky) > billed(calm)

    def test_summary_mentions_the_bill(self):
        result = FlashCrowdScenario().run()
        assert "billed p95 volume" in result.summary()


class TestRegistry:
    def test_all_scenarios_registered(self):
        assert set(SCENARIOS) == {
            "failure-churn",
            "marketplace",
            "flash-crowd",
            "marketplace-heterogeneous",
        }

    def test_run_scenario_applies_overrides(self):
        result = run_scenario("flash-crowd", seed=3, duration=30.0)
        assert result.seed == 3
        assert result.duration == 30.0

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario("does-not-exist")


class TestTimeKnobValidation:
    """Time knobs that would hang the event loop or crash it are bad input."""

    @pytest.mark.parametrize(
        ("scenario", "knob", "value"),
        [
            *(
                (scenario, knob, 0.0)
                for scenario in ("marketplace", "flash-crowd", "marketplace-heterogeneous")
                for knob in ("metering_interval", "term_duration")
            ),
            ("marketplace", "term_duration", -24.0),
            ("failure-churn", "beacon_interval", 0.0),
            ("failure-churn", "sample_interval", 0.0),
            ("failure-churn", "mean_time_to_failure", 0.0),
            ("failure-churn", "mean_time_to_repair", 0.0),
            ("failure-churn", "beacon_interval", float("inf")),
            ("failure-churn", "reconvergence_delay", -1.0),
            ("failure-churn", "reconvergence_delay", float("inf")),
            *((scenario, "duration", -1.0) for scenario in sorted(SCENARIOS)),
            ("marketplace", "duration", float("inf")),
        ],
    )
    def test_rejected_naming_the_knob(self, scenario, knob, value):
        with pytest.raises(ValidationError, match=rf"\.{knob} must be a finite number"):
            run_scenario(scenario, **{knob: value})

    def test_direct_construction_is_checked_too(self):
        with pytest.raises(ValidationError, match=r"failure-churn\.beacon_interval"):
            FailureChurnScenario(beacon_interval=float("inf"))

    def test_zero_delay_and_horizon_are_allowed(self):
        result = run_scenario(
            "failure-churn",
            duration=0.0,
            reconvergence_delay=0.0,
            num_tier2=4,
            num_tier3=8,
            num_stubs=14,
            num_pairs=4,
        )
        assert result.duration == 0.0

"""Execution of a single sweep shard.

A shard is one grid point of an expanded :class:`~repro.sweep.spec.SweepSpec`:
either all selected figures at one (scale, seed) — sharing a single
:class:`~repro.experiments.context.DiversityContext` the way the
combined experiment runner does — or one simulation scenario
configuration at one (scale, seed).

:func:`run_shard` returns a JSON-safe record of deterministic metrics:
every value is reproducible from the shard parameters alone, so cached
results merge byte-identically with freshly computed ones.  Wall-clock
timings deliberately live *outside* this record (the executor stores
them in the cache entry, never in the summary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.experiments.context import context_for
from repro.experiments.fig2_pod import Fig2Config
from repro.experiments.fig3_paths import PathDiversityConfig
from repro.experiments.fig5_geodistance import Fig5Config
from repro.experiments.fig6_bandwidth import Fig6Config
from repro.experiments.reporting import metric_value
from repro.experiments.runner import FIGURES, RunnerConfig
from repro.simulation.scenarios import run_scenario, scenario_field_names
from repro.sweep.spec import ScaleSpec, Shard


@dataclass(frozen=True)
class _ShardConfig(RunnerConfig):
    """The figure configurations of a (scale, seed) grid point."""

    scale: ScaleSpec = field(kw_only=True)

    def fig2(self) -> Fig2Config:
        # Fig. 2 is a bargaining experiment with no topology: the scale
        # axis only sizes its trial count so tiny sweeps stay tiny (an
        # inline scale with sample_size=1000 reaches the paper's 200
        # trials).
        return Fig2Config(
            choice_counts=(10, 20, 30),
            trials=max(5, self.scale.sample_size // 5),
            seed=self.seed,
        )

    def diversity(self) -> PathDiversityConfig:
        return PathDiversityConfig(
            **self.scale.topology_kwargs(),
            sample_size=self.scale.sample_size,
            seed=self.seed,
        )

    def fig5(self) -> Fig5Config:
        return Fig5Config(
            diversity=self.diversity(),
            pair_sample_size=self.scale.pair_sample_size,
            geography_seed=self.seed,
        )

    def fig6(self) -> Fig6Config:
        return Fig6Config(
            diversity=self.diversity(), pair_sample_size=self.scale.pair_sample_size
        )


#: The keys of each figure's ``metrics()`` a figures shard records,
#: under the ``figN.`` prefix.
_SWEEP_METRICS: dict[str, tuple[str, ...]] = {
    "fig2": ("best_pod_u1", "best_pod_u2"),
    "fig3": (
        "num_agreements",
        "grc_mean_paths",
        "ma_star_mean_paths",
        "ma_mean_paths",
        "additional_paths_mean",
        "additional_paths_max",
    ),
    "fig4": (
        "grc_mean_destinations",
        "ma_mean_destinations",
        "additional_destinations_mean",
    ),
    "fig5": ("pairs_below_grc_min", "pairs_below_grc_median", "median_reduction"),
    "fig6": ("pairs_above_grc_max", "pairs_above_grc_min", "median_increase"),
}


def _run_figures_shard(shard: Shard) -> dict[str, Any]:
    config = _ShardConfig(seed=shard.seed, scale=shard.scale)
    entries = [entry for entry in FIGURES if entry.key in shard.figures]
    context = None
    fingerprint: str | None = None
    if any(entry.uses_context for entry in entries):
        context = context_for(config.diversity(), None)
        fingerprint = context.compiled.source_fingerprint
    metrics: dict[str, Any] = {}
    for entry in entries:
        figure = entry.run(config, context)
        values = figure.metrics()
        if entry.key == "fig5":
            # The one sweep key no report section carries.
            values["pairs_below_grc_median"] = metric_value(figure.quantity(("median", 1)))
        for key in _SWEEP_METRICS[entry.key]:
            metrics[f"{entry.key}.{key}"] = values[key]
    return {"metrics": metrics, "topology_fingerprint": fingerprint}


def _run_scenario_shard(shard: Shard) -> dict[str, Any]:
    assert shard.scenario is not None
    overrides = dict(shard.scenario.overrides)
    # The scale axis reaches scenarios through their topology-size
    # fields, where the scenario has them (the Fig. 1 fixture scenarios
    # don't); explicit per-configuration overrides win over the scale.
    allowed = scenario_field_names(shard.scenario.scenario)
    for key, value in shard.scale.topology_kwargs().items():
        if key in allowed and key not in overrides:
            overrides[key] = value
    result = run_scenario(shard.scenario.scenario, seed=shard.seed, **overrides)
    metrics: dict[str, Any] = {
        "events_processed": result.events_processed,
        "trace_records": len(result.trace),
    }
    for kind, count in result.trace.kinds().items():
        metrics[f"records.{kind}"] = count
    for architecture in result.trace.architectures():
        metrics[f"availability.{architecture}"] = metric_value(
            result.trace.availability(architecture)
        )
    revenue = result.trace.revenue_by_as()
    if revenue:
        metrics["revenue_total"] = metric_value(sum(revenue.values()))
    return {"metrics": metrics, "topology_fingerprint": None}


def run_shard(shard: Shard) -> dict[str, Any]:
    """Run one shard and return its JSON-safe result record.

    The record contains the shard id/params, the deterministic metrics
    mapping, and (for figure shards) the content fingerprint of the
    topology the metrics were computed on — the cross-process face of
    the :mod:`repro.core` staleness contract.
    """
    if shard.kind == "figures":
        result = _run_figures_shard(shard)
    elif shard.kind == "scenario":
        result = _run_scenario_shard(shard)
    else:
        raise ValueError(f"unknown shard kind {shard.kind!r}")
    return {
        "id": shard.shard_id,
        "group": shard.group_id,
        "params": shard.params(),
        **result,
    }

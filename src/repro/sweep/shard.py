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

import math
from typing import Any

from repro.core.artifacts import ArtifactStore
from repro.experiments.context import DiversityContext, context_for
from repro.experiments.fig2_pod import Fig2Config, run_fig2
from repro.experiments.fig3_paths import PathDiversityConfig, run_fig3
from repro.experiments.fig4_destinations import run_fig4
from repro.experiments.fig5_geodistance import Fig5Config, run_fig5
from repro.experiments.fig6_bandwidth import Fig6Config, run_fig6
from repro.simulation.scenarios import run_scenario, scenario_field_names
from repro.sweep.spec import ScaleSpec, Shard

#: Figures that consume the shared diversity context.
_CONTEXT_FIGURES = frozenset({"fig3", "fig4", "fig5", "fig6"})


def _clean(value: float) -> float | None:
    """NaN/inf → None so records stay strict-JSON serializable."""
    number = float(value)
    return number if math.isfinite(number) else None


def diversity_config(scale: ScaleSpec, seed: int) -> PathDiversityConfig:
    """The Fig. 3–6 configuration of a (scale, seed) grid point."""
    return PathDiversityConfig(
        num_tier1=scale.num_tier1,
        num_tier2=scale.num_tier2,
        num_tier3=scale.num_tier3,
        num_stubs=scale.num_stubs,
        sample_size=scale.sample_size,
        seed=seed,
    )


def _fig2_metrics(scale: ScaleSpec, seed: int) -> dict[str, Any]:
    # Fig. 2 is a bargaining experiment with no topology: the scale axis
    # only sizes its trial count so tiny sweeps stay tiny (an inline
    # scale with sample_size=1000 reaches the paper's 200 trials).
    config = Fig2Config(
        choice_counts=(10, 20, 30),
        trials=max(5, scale.sample_size // 5),
        seed=seed,
    )
    result = run_fig2(config)
    return {
        "fig2.best_pod_u1": _clean(result.best_pod("U(1)")),
        "fig2.best_pod_u2": _clean(result.best_pod("U(2)")),
    }


def _fig3_metrics(config: PathDiversityConfig, ctx: DiversityContext) -> dict[str, Any]:
    result = run_fig3(config, context=ctx)
    diversity = result.diversity
    extra = diversity.additional_path_summary()
    return {
        "fig3.num_agreements": result.num_agreements,
        "fig3.grc_mean_paths": _clean(diversity.path_cdf("GRC").mean),
        "fig3.ma_star_mean_paths": _clean(diversity.path_cdf("MA*").mean),
        "fig3.ma_mean_paths": _clean(diversity.path_cdf("MA").mean),
        "fig3.additional_paths_mean": _clean(extra["mean"]),
        "fig3.additional_paths_max": _clean(extra["max"]),
    }


def _fig4_metrics(config: PathDiversityConfig, ctx: DiversityContext) -> dict[str, Any]:
    result = run_fig4(config, context=ctx)
    diversity = result.diversity
    extra = diversity.additional_destination_summary()
    return {
        "fig4.grc_mean_destinations": _clean(diversity.destination_cdf("GRC").mean),
        "fig4.ma_mean_destinations": _clean(diversity.destination_cdf("MA").mean),
        "fig4.additional_destinations_mean": _clean(extra["mean"]),
    }


def _fig5_metrics(
    config: PathDiversityConfig, scale: ScaleSpec, seed: int, ctx: DiversityContext
) -> dict[str, Any]:
    result = run_fig5(
        Fig5Config(
            diversity=config,
            pair_sample_size=scale.pair_sample_size,
            geography_seed=seed,
        ),
        context=ctx,
    )
    analysis = result.geodistance
    reduction = analysis.reduction_cdf()
    return {
        "fig5.pairs_below_grc_min": _clean(analysis.fraction_of_pairs_improving("min", 1)),
        "fig5.pairs_below_grc_median": _clean(
            analysis.fraction_of_pairs_improving("median", 1)
        ),
        "fig5.median_reduction": _clean(reduction.median) if reduction.count else None,
    }


def _fig6_metrics(
    config: PathDiversityConfig, scale: ScaleSpec, seed: int, ctx: DiversityContext
) -> dict[str, Any]:
    result = run_fig6(
        Fig6Config(
            diversity=config,
            pair_sample_size=scale.pair_sample_size,
            sampling_seed=seed,
        ),
        context=ctx,
    )
    analysis = result.bandwidth
    increase = analysis.increase_cdf()
    return {
        "fig6.pairs_above_grc_max": _clean(analysis.fraction_of_pairs_improving("max", 1)),
        "fig6.pairs_above_grc_min": _clean(analysis.fraction_of_pairs_improving("min", 1)),
        "fig6.median_increase": _clean(increase.median) if increase.count else None,
    }


def _run_figures_shard(shard: Shard, artifact_dir: str | None = None) -> dict[str, Any]:
    config = diversity_config(shard.scale, shard.seed)
    metrics: dict[str, Any] = {}
    fingerprint: str | None = None
    ctx: DiversityContext | None = None
    if _CONTEXT_FIGURES & set(shard.figures):
        store = ArtifactStore(artifact_dir) if artifact_dir is not None else None
        ctx = context_for(config, None, store=store)
        fingerprint = ctx.compiled.source_fingerprint
    for figure in shard.figures:  # canonical order fixed by the spec
        if figure == "fig2":
            metrics.update(_fig2_metrics(shard.scale, shard.seed))
        elif figure == "fig3":
            assert ctx is not None
            metrics.update(_fig3_metrics(config, ctx))
        elif figure == "fig4":
            assert ctx is not None
            metrics.update(_fig4_metrics(config, ctx))
        elif figure == "fig5":
            assert ctx is not None
            metrics.update(_fig5_metrics(config, shard.scale, shard.seed, ctx))
        elif figure == "fig6":
            assert ctx is not None
            metrics.update(_fig6_metrics(config, shard.scale, shard.seed, ctx))
        else:  # pragma: no cover - expansion already validated figure names
            raise ValueError(f"unknown figure {figure!r}")
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
        metrics[f"availability.{architecture}"] = _clean(
            result.trace.availability(architecture)
        )
    revenue = result.trace.revenue_by_as()
    if revenue:
        metrics["revenue_total"] = _clean(sum(revenue.values()))
    return {"metrics": metrics, "topology_fingerprint": None}


def run_shard(shard: Shard, artifact_dir: str | None = None) -> dict[str, Any]:
    """Run one shard and return its JSON-safe result record.

    The record contains the shard id/params, the deterministic metrics
    mapping, and (for figure shards) the content fingerprint of the
    topology the metrics were computed on — the cross-process face of
    the :mod:`repro.core` staleness contract.  With an ``artifact_dir``
    (a :class:`~repro.core.artifacts.ArtifactStore` root), figure shards
    publish-or-open their compiled topology there: the first shard of a
    (scale, seed) compiles and publishes, every sibling — in this run or
    any later one — opens the memory-mapped artifact instead.  The
    record is byte-identical either way.
    """
    if shard.kind == "figures":
        result = _run_figures_shard(shard, artifact_dir)
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

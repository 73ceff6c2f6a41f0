"""Declarative sweep specifications and their deterministic expansion.

A sweep spec describes a parameter-space exploration over the
reproduction's two workload families:

- **figure shards** — the paper's evaluation figures (Figs. 2–6) at a
  topology scale and seed, sharing one
  :class:`~repro.experiments.context.DiversityContext` per shard;
- **scenario shards** — ``repro simulate`` scenarios with sweepable
  knobs (any public field of the scenario dataclass), also crossed with
  scale and seed.

The grid is the cross product ``scales × seeds`` (× ``scenarios`` for
scenario shards).  Expansion is deterministic: the same spec always
yields the same shard tuple in the same order, and optional random
subsampling is itself seeded.  Shard identity (:meth:`Shard.params`) is
a canonical JSON-safe mapping — the input to the on-disk cache key.

Specs are plain JSON documents::

    {
      "name": "example",
      "scales": ["tiny", {"name": "custom", "num_tier1": 4, ...}],
      "seeds": [1, 2, 3],
      "figures": ["fig3", "fig4"],
      "scenarios": [
        {"scenario": "failure-churn", "duration": 12.0},
        {"scenario": "failure-churn", "duration": 12.0,
         "mean_time_to_failure": 60.0}
      ],
      "sample": {"count": 10, "seed": 7}
    }
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.core.store import canonical_json, input_files
from repro.envelope import read_json_document
from repro.errors import ValidationError
from repro.simulation.scenarios import SCENARIOS

#: Figures a sweep can select, in canonical order.
FIGURES: tuple[str, ...] = ("fig2", "fig3", "fig4", "fig5", "fig6")


@dataclass(frozen=True)
class ScaleSpec:
    """One topology scale of the sweep's ``scales`` axis."""

    name: str
    num_tier1: int
    num_tier2: int
    num_tier3: int
    num_stubs: int
    sample_size: int
    pair_sample_size: int

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe form (field order fixed by the dataclass)."""
        return dataclasses.asdict(self)

    def topology_kwargs(self) -> dict[str, int]:
        """The topology-generator size knobs of this scale."""
        return {
            "num_tier1": self.num_tier1,
            "num_tier2": self.num_tier2,
            "num_tier3": self.num_tier3,
            "num_stubs": self.num_stubs,
        }


#: Named scales a spec can reference by string.  ``tiny`` is the CI
#: smoke scale; ``full`` matches ``repro experiments --full``.
NAMED_SCALES: dict[str, ScaleSpec] = {
    "tiny": ScaleSpec("tiny", 3, 8, 25, 70, 40, 12),
    "small": ScaleSpec("small", 4, 15, 40, 120, 80, 20),
    "default": ScaleSpec("default", 8, 30, 100, 350, 150, 40),
    "full": ScaleSpec("full", 8, 60, 200, 800, 500, 80),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One ``repro simulate`` configuration of the ``scenarios`` axis.

    ``overrides`` holds sweepable scenario knobs as a sorted tuple of
    ``(field, value)`` pairs, kept as written (the spec's canonical
    form) and checked by decoding them into the scenario dataclass.
    ``label`` distinguishes configurations of the same scenario in
    shard ids and aggregation groups.
    """

    scenario: str
    label: str
    overrides: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValidationError(
                f"unknown scenario {self.scenario!r}; "
                f"available: {', '.join(sorted(SCENARIOS))}"
            )
        overrides = dict(self.overrides)
        if "seed" in overrides:
            raise ValidationError("scenario overrides cannot set 'seed'; seeds are a sweep axis")
        SCENARIOS[self.scenario].from_json_dict(overrides)

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe form."""
        return {
            "scenario": self.scenario,
            "label": self.label,
            "overrides": {key: value for key, value in self.overrides},
        }


@dataclass(frozen=True)
class Shard:
    """One unit of sweep work: a grid point of the expanded spec."""

    kind: str  # "figures" | "scenario"
    scale: ScaleSpec
    seed: int
    figures: tuple[str, ...] = ()
    scenario: ScenarioSpec | None = None

    @property
    def shard_id(self) -> str:
        """Human-readable unique id, stable across runs of the same spec."""
        if self.kind == "figures":
            return f"figures/{self.scale.name}/seed{self.seed}"
        assert self.scenario is not None
        return f"scenario/{self.scenario.label}/{self.scale.name}/seed{self.seed}"

    @property
    def group_id(self) -> str:
        """The shard id minus the seed — the aggregation grid point."""
        if self.kind == "figures":
            return f"figures/{self.scale.name}"
        assert self.scenario is not None
        return f"scenario/{self.scenario.label}/{self.scale.name}"

    def params(self) -> dict[str, Any]:
        """Canonical JSON-safe parameter mapping — the cache-key input."""
        record: dict[str, Any] = {
            "kind": self.kind,
            "scale": self.scale.as_dict(),
            "seed": self.seed,
        }
        if self.kind == "figures":
            record["figures"] = list(self.figures)
        else:
            assert self.scenario is not None
            record["scenario"] = self.scenario.as_dict()
        return record

    def input_files(self) -> dict[str, Any]:
        """The input files the shard reads; their content joins its key."""
        if self.scenario is None:
            return {}
        scenario_cls = SCENARIOS[self.scenario.scenario]
        return input_files(scenario_cls, dict(self.scenario.overrides))


def _parse_scale(entry: Any) -> ScaleSpec:
    if isinstance(entry, str):
        try:
            return NAMED_SCALES[entry]
        except KeyError:
            raise ValidationError(
                f"unknown named scale {entry!r}; "
                f"available: {', '.join(sorted(NAMED_SCALES))}"
            ) from None
    if isinstance(entry, Mapping):
        data = dict(entry)
        name = data.pop("name", None)
        if not isinstance(name, str) or not name:
            raise ValidationError("inline scales need a non-empty 'name'")
        base = NAMED_SCALES.get(name, NAMED_SCALES["tiny"])
        known = {field.name for field in dataclasses.fields(ScaleSpec)} - {"name"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(
                f"unknown scale field(s) {sorted(unknown)}; allowed: {sorted(known)}"
            )
        values = {field: getattr(base, field) for field in known}
        for key, value in data.items():
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValidationError(
                    f"scale field {key!r} must be a positive integer, got {value!r}"
                )
            values[key] = value
        return ScaleSpec(name=name, **values)
    raise ValidationError(f"scales entries must be names or mappings, got {entry!r}")


def _parse_scenario(entry: Any, position: int) -> ScenarioSpec:
    if not isinstance(entry, Mapping):
        raise ValidationError(f"scenarios entries must be mappings, got {entry!r}")
    data = dict(entry)
    name = data.pop("scenario", None)
    if not isinstance(name, str):
        raise ValidationError("each scenarios entry needs a 'scenario' name")
    label = data.pop("label", None)
    if label is None:
        label = name if not data else f"{name}#{position}"
    if not isinstance(label, str) or not label:
        raise ValidationError("scenario 'label' must be a non-empty string")
    overrides = tuple(sorted(data.items()))
    return ScenarioSpec(scenario=name, label=label, overrides=overrides)


@dataclass(frozen=True)
class SweepSpec:
    """A validated, immutable sweep specification."""

    name: str
    scales: tuple[ScaleSpec, ...]
    seeds: tuple[int, ...]
    figures: tuple[str, ...] = ()
    scenarios: tuple[ScenarioSpec, ...] = ()
    sample_count: int | None = None
    sample_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("sweep spec needs a non-empty 'name'")
        if not self.scales:
            raise ValidationError("sweep spec needs at least one scale")
        if not self.seeds:
            raise ValidationError("sweep spec needs at least one seed")
        if not self.figures and not self.scenarios:
            raise ValidationError("sweep spec needs 'figures' and/or 'scenarios'")
        if len({scale.name for scale in self.scales}) != len(self.scales):
            raise ValidationError("scale names must be unique")
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
                raise ValidationError(f"seeds must be non-negative integers, got {seed!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("seeds must be unique")
        labels = [scenario.label for scenario in self.scenarios]
        if len(set(labels)) != len(labels):
            raise ValidationError("scenario labels must be unique")
        for figure in self.figures:
            if figure not in FIGURES:
                raise ValidationError(
                    f"unknown figure {figure!r}; available: {', '.join(FIGURES)}"
                )
        if self.sample_count is not None and self.sample_count < 1:
            raise ValidationError(
                f"sample count must be positive, got {self.sample_count}"
            )

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Parse and validate a spec document (the JSON file's content)."""
        if not isinstance(data, Mapping):
            raise ValidationError(f"sweep spec must be a mapping, got {data!r}")
        unknown = set(data) - {"name", "scales", "seeds", "figures", "scenarios", "sample"}
        if unknown:
            raise ValidationError(f"unknown spec field(s): {sorted(unknown)}")
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError("sweep spec needs a non-empty 'name'")
        for field in ("scales", "seeds", "figures", "scenarios"):
            value = data.get(field, [])
            if not isinstance(value, list):
                raise ValidationError(f"'{field}' must be a list, got {value!r}")
        scales = tuple(_parse_scale(entry) for entry in data.get("scales", ()))
        seeds = tuple(data.get("seeds", ()))
        figures_raw = data.get("figures", ())
        for entry in figures_raw:
            if not isinstance(entry, str):
                raise ValidationError(f"figures entries must be names, got {entry!r}")
        # Canonical figure order regardless of spec order.
        figures = tuple(f for f in FIGURES if f in set(figures_raw))
        if len(set(figures_raw)) != len(tuple(figures_raw)):
            raise ValidationError("figures must be unique")
        if set(figures_raw) - set(figures):
            bad = sorted(set(figures_raw) - set(figures))
            raise ValidationError(
                f"unknown figure(s) {bad}; available: {', '.join(FIGURES)}"
            )
        scenarios = tuple(
            _parse_scenario(entry, position)
            for position, entry in enumerate(data.get("scenarios", ()))
        )
        sample = data.get("sample")
        sample_count: int | None = None
        sample_seed = 0
        if sample is not None:
            if not isinstance(sample, Mapping) or "count" not in sample:
                raise ValidationError("'sample' must be a mapping with a 'count'")
            sample_count = sample["count"]
            if not isinstance(sample_count, int) or isinstance(sample_count, bool):
                raise ValidationError("'sample.count' must be an integer")
            sample_seed = sample.get("seed", 0)
            if not isinstance(sample_seed, int) or isinstance(sample_seed, bool):
                raise ValidationError("'sample.seed' must be an integer")
        return cls(
            name=name,
            scales=scales,
            seeds=seeds,
            figures=figures,
            scenarios=scenarios,
            sample_count=sample_count,
            sample_seed=sample_seed,
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "SweepSpec":
        """Load a spec from a JSON file."""
        return cls.from_mapping(read_json_document(path, "sweep spec"))

    def canonical(self) -> dict[str, Any]:
        """Canonical JSON-safe form of the whole spec."""
        record: dict[str, Any] = {
            "name": self.name,
            "scales": [scale.as_dict() for scale in self.scales],
            "seeds": list(self.seeds),
            "figures": list(self.figures),
            "scenarios": [scenario.as_dict() for scenario in self.scenarios],
        }
        if self.sample_count is not None:
            record["sample"] = {"count": self.sample_count, "seed": self.sample_seed}
        return record

    # The envelope codec's hooks (:mod:`repro.envelope`).
    to_json_value = canonical
    from_json_value = from_mapping

    def spec_hash(self) -> str:
        """Stable digest of the canonical spec content."""
        return hashlib.sha256(canonical_json(self.canonical()).encode()).hexdigest()

    def expand(self) -> tuple[Shard, ...]:
        """Expand the spec into its deterministic, ordered shard list.

        Order is fixed: all figure shards (scale-major, then seed),
        followed by all scenario shards (scenario-major, then scale,
        then seed).  ``sample`` subsampling draws from the full grid
        with a seeded RNG and preserves grid order.
        """
        shards: list[Shard] = []
        if self.figures:
            for scale in self.scales:
                for seed in self.seeds:
                    shards.append(
                        Shard(kind="figures", scale=scale, seed=seed, figures=self.figures)
                    )
        for scenario in self.scenarios:
            for scale in self.scales:
                for seed in self.seeds:
                    shards.append(
                        Shard(kind="scenario", scale=scale, seed=seed, scenario=scenario)
                    )
        if self.sample_count is not None and self.sample_count < len(shards):
            rng = random.Random(self.sample_seed)
            chosen = sorted(rng.sample(range(len(shards)), self.sample_count))
            shards = [shards[index] for index in chosen]
        return tuple(shards)


def smoke_spec() -> SweepSpec:
    """The built-in CI smoke grid behind ``repro sweep --smoke``.

    2 scales × 3 seeds × 2 scenario configs = 12 scenario shards, plus
    2 × 3 figure shards covering Figs. 3/4 — 18 shards total, all tiny
    enough to finish in CI.
    """
    return SweepSpec.from_mapping(
        {
            "name": "smoke",
            "scales": [
                "tiny",
                {"name": "micro", "num_tier1": 2, "num_tier2": 5, "num_tier3": 12,
                 "num_stubs": 30, "sample_size": 20, "pair_sample_size": 8},
            ],
            "seeds": [1, 2, 3],
            "figures": ["fig3", "fig4"],
            "scenarios": [
                {"scenario": "failure-churn", "label": "churn-base", "duration": 6.0},
                {"scenario": "failure-churn", "label": "churn-fast",
                 "duration": 6.0, "mean_time_to_failure": 40.0,
                 "mean_time_to_repair": 1.0},
            ],
        }
    )

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

:class:`SweepSpec` decodes through :class:`~repro.envelope.JsonCodec`:
an unknown key, a wrong JSON type or a boolean where an integer belongs
raises :class:`~repro.errors.ValidationError` naming the field
(``SweepSpec.sample``, ``ScaleSpec.num_stubs``).  A scale is a key of
:data:`NAMED_SCALES` or an object whose missing knobs come from the
named scale of its name (else ``tiny``).  A scenario entry is flat —
``scenario``, an optional ``label``, then knobs the scenario dataclass
decodes.  Figure names are the keys of
:data:`repro.experiments.runner.FIGURES`, taken in its order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.store import canonical_json, input_files
from repro.envelope import OMIT_IF_NONE, JsonCodec, read_json_document
from repro.errors import ValidationError
from repro.experiments.runner import FIGURES
from repro.simulation.scenarios import SCENARIOS


@dataclass(frozen=True)
class ScaleSpec(JsonCodec):
    """One topology scale of the sweep's ``scales`` axis."""

    decode_error = ValidationError

    name: str
    num_tier1: int
    num_tier2: int
    num_tier3: int
    num_stubs: int
    sample_size: int
    pair_sample_size: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("ScaleSpec.name must be non-empty")
        for knob in dataclasses.fields(self)[1:]:
            if getattr(self, knob.name) <= 0:
                raise ValidationError(
                    f"ScaleSpec.{knob.name} must be positive, got {getattr(self, knob.name)}"
                )

    @classmethod
    def from_json_value(cls, value: Any) -> "ScaleSpec":
        """A named scale, or an object whose missing knobs come from one.

        An inline scale named like a named scale starts from it; any
        other name starts from ``tiny``.
        """
        if not isinstance(value, Mapping):
            if isinstance(value, str) and value in NAMED_SCALES:
                return NAMED_SCALES[value]
            raise ValidationError(
                f"unknown named scale {value!r} in SweepSpec.scales[]; "
                f"available: {', '.join(sorted(NAMED_SCALES))}"
            )
        name = value.get("name")
        base = NAMED_SCALES[name if isinstance(name, str) and name in NAMED_SCALES else "tiny"]
        knobs = {key: item for key, item in dataclasses.asdict(base).items() if key != "name"}
        return cls.from_json_dict({**knobs, **value})

    #: A named scale is written out in full.
    to_json_value = JsonCodec.to_json_dict

    def topology_kwargs(self) -> dict[str, int]:
        """The topology-generator size knobs of this scale."""
        return {
            "num_tier1": self.num_tier1,
            "num_tier2": self.num_tier2,
            "num_tier3": self.num_tier3,
            "num_stubs": self.num_stubs,
        }


#: Named scales a spec can reference by string.  ``tiny`` is the CI
#: smoke scale.  ``full`` shares its sample sizes (500 ASes, 80 pairs)
#: with ``repro experiments --full`` but not its topology, which there
#: has 8/30/100/350 ASes per tier.
NAMED_SCALES: dict[str, ScaleSpec] = {
    "tiny": ScaleSpec("tiny", 3, 8, 25, 70, 40, 12),
    "small": ScaleSpec("small", 4, 15, 40, 120, 80, 20),
    "default": ScaleSpec("default", 8, 30, 100, 350, 150, 40),
    "full": ScaleSpec("full", 8, 60, 200, 800, 500, 80),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One ``repro simulate`` configuration of the ``scenarios`` axis.

    A spec entry is flat: ``scenario``, an optional ``label``, and the
    sweepable scenario knobs.  ``overrides`` holds the knobs as a sorted
    tuple of ``(field, value)`` pairs, kept as written and checked by
    decoding them into the scenario dataclass.  ``label`` distinguishes
    configurations of the same scenario in shard ids and aggregation
    groups; :class:`SweepSpec` fills in a missing one.  The canonical
    form nests the knobs under ``overrides`` (the cache-key input).
    """

    scenario: str
    label: str | None = None
    overrides: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIOS:
            raise ValidationError(
                f"unknown scenario {self.scenario!r}; "
                f"available: {', '.join(sorted(SCENARIOS))}"
            )
        if self.label is not None and (not isinstance(self.label, str) or not self.label):
            raise ValidationError(
                f"SweepSpec.scenarios[].label must be a non-empty string, got {self.label!r}"
            )
        overrides = dict(self.overrides)
        if "seed" in overrides:
            raise ValidationError("scenario overrides cannot set 'seed'; seeds are a sweep axis")
        SCENARIOS[self.scenario].from_json_dict(overrides)

    @classmethod
    def from_json_value(cls, value: Any) -> "ScenarioSpec":
        """One flat spec entry."""
        if not isinstance(value, Mapping):
            raise ValidationError(f"SweepSpec.scenarios[] must be an object, got {value!r}")
        knobs = dict(value)
        return cls(
            scenario=knobs.pop("scenario", None),
            label=knobs.pop("label", None),
            overrides=tuple(sorted(knobs.items())),
        )

    def to_json_value(self) -> dict[str, Any]:
        """Canonical JSON-safe form."""
        return {
            "scenario": self.scenario,
            "label": self.label,
            "overrides": dict(self.overrides),
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
            "scale": self.scale.to_json_dict(),
            "seed": self.seed,
        }
        if self.kind == "figures":
            record["figures"] = list(self.figures)
        else:
            assert self.scenario is not None
            record["scenario"] = self.scenario.to_json_value()
        return record

    def input_files(self) -> dict[str, Any]:
        """The input files the shard reads; their content joins its key."""
        if self.scenario is None:
            return {}
        scenario_cls = SCENARIOS[self.scenario.scenario]
        return input_files(scenario_cls, dict(self.scenario.overrides))


@dataclass(frozen=True)
class SampleSpec(JsonCodec):
    """Seeded random subsampling of the full grid: ``count`` shards."""

    decode_error = ValidationError

    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValidationError(f"SweepSpec.sample.count must be positive, got {self.count}")


@dataclass(frozen=True)
class SweepSpec(JsonCodec):
    """A validated, immutable sweep specification.

    Decoding type-checks every field and names it on error; the checks
    here cover what a JSON type cannot say.  Figures are taken in the
    experiment runner's order, and a scenario entry without a label is
    labelled by its scenario (``name#i``, its position, when it sets
    knobs).
    """

    decode_error = ValidationError

    name: str
    scales: tuple[ScaleSpec, ...]
    seeds: tuple[int, ...]
    figures: tuple[str, ...] = ()
    scenarios: tuple[ScenarioSpec, ...] = ()
    sample: SampleSpec | None = field(default=None, metadata=OMIT_IF_NONE)

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
        if any(seed < 0 for seed in self.seeds):
            raise ValidationError(f"SweepSpec.seeds must be non-negative, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("seeds must be unique")
        keys = [entry.key for entry in FIGURES]
        unknown = sorted(set(self.figures) - set(keys))
        if unknown:
            raise ValidationError(f"unknown figure(s) {unknown}; available: {', '.join(keys)}")
        if len(set(self.figures)) != len(self.figures):
            raise ValidationError("figures must be unique")
        scenarios = tuple(
            scenario
            if scenario.label is not None
            else dataclasses.replace(
                scenario,
                label=f"{scenario.scenario}#{i}" if scenario.overrides else scenario.scenario,
            )
            for i, scenario in enumerate(self.scenarios)
        )
        labels = [scenario.label for scenario in scenarios]
        if len(set(labels)) != len(labels):
            raise ValidationError("scenario labels must be unique")
        object.__setattr__(self, "figures", tuple(key for key in keys if key in self.figures))
        object.__setattr__(self, "scenarios", scenarios)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Decode and validate a spec document (the JSON file's content)."""
        return cls.from_json_dict(data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "SweepSpec":
        """Load a spec from a JSON file."""
        return cls.from_json_dict(read_json_document(path, "sweep spec"))

    def spec_hash(self) -> str:
        """Stable digest of the canonical spec content."""
        return hashlib.sha256(canonical_json(self.to_json_dict()).encode()).hexdigest()

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
        if self.sample is not None and self.sample.count < len(shards):
            rng = random.Random(self.sample.seed)
            chosen = sorted(rng.sample(range(len(shards)), self.sample.count))
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

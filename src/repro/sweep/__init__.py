"""Parameter-sweep orchestration: sharded, resumable, byte-reproducible.

This package turns "how do the paper's metrics behave across a grid of
topology scales × seeds × figure selections × simulation-scenario
knobs?" into one declarative spec and one command (``repro sweep``):

- :mod:`repro.sweep.spec` — the spec format, named scales, and
  deterministic grid expansion into shards;
- :mod:`repro.sweep.shard` — executes one shard (all selected figures
  sharing one compiled context, or one scenario configuration);
- :mod:`repro.sweep.executor` — process-parallel orchestration with
  per-shard results in a content-addressed
  :class:`~repro.core.store.Store` for instant resume;
- :mod:`repro.sweep.aggregate` — fixed-order merging into
  ``sweep_summary.json`` + per-metric CSV tables.
"""

from repro.sweep.aggregate import build_summary, summary_text, write_outputs
from repro.sweep.executor import (
    DEFAULT_CACHE_DIR,
    DEFAULT_OUT_DIR,
    SweepRunResult,
    run_sweep,
)
from repro.sweep.shard import run_shard
from repro.sweep.spec import (
    FIGURES,
    NAMED_SCALES,
    ScaleSpec,
    ScenarioSpec,
    Shard,
    SweepSpec,
    smoke_spec,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_OUT_DIR",
    "FIGURES",
    "NAMED_SCALES",
    "ScaleSpec",
    "ScenarioSpec",
    "Shard",
    "SweepRunResult",
    "SweepSpec",
    "build_summary",
    "run_shard",
    "run_sweep",
    "smoke_spec",
    "summary_text",
    "write_outputs",
]

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

from repro._lazy import lazy_exports

#: Default locations relative to the working directory (defined here so
#: the sweep request's help text needs none of the sweep machinery).
DEFAULT_CACHE_DIR = ".sweep-cache"
DEFAULT_OUT_DIR = "sweep-results"

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sweep.aggregate": ("build_summary", "write_outputs"),
        "repro.sweep.executor": ("SweepRunResult", "run_sweep"),
        "repro.sweep.shard": ("run_shard",),
        "repro.sweep.spec": (
            "NAMED_SCALES",
            "ScaleSpec",
            "ScenarioSpec",
            "Shard",
            "SweepSpec",
            "smoke_spec",
        ),
    },
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_OUT_DIR",
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
    "write_outputs",
]

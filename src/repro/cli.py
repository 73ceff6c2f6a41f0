"""Command-line interface of the reproduction — a thin API adapter.

These subcommands cover the workflows a downstream user needs:

``repro topology``
    Generate a synthetic Internet-like AS topology and write it in the
    CAIDA ``as-rel`` format (so it can be inspected, edited, or replaced
    by a real CAIDA snapshot).

``repro diversity``
    Run the §VI path-diversity analysis on a topology file (or on a
    freshly generated one) and print the Fig. 3/4-style summary.

``repro experiments``
    Run the full experiment harness (every figure) and print the
    paper-vs-measured report — the same output as
    ``python -m repro.experiments.runner``.

``repro simulate``
    Run a canned discrete-event simulation scenario (failure churn,
    agreement marketplace, flash crowd, heterogeneous marketplace) and
    print its metrics summary; optionally write the full JSONL metrics
    trace to a file.  ``--population pop.json`` maps behavior profiles
    onto the AS population; ``--list-scenarios`` prints the scenario
    catalog with parameter schemas.

``repro agents``
    Inspect the heterogeneous-agent behavior registry: ``repro agents
    list`` prints every profile (honest, dishonest, adaptive, budget,
    regional) with its parameter schema.

``repro sweep``
    Expand a declarative sweep spec (scales × seeds × figures ×
    scenario knobs) into shards, run them process-parallel with a
    resumable on-disk cache, and write the byte-reproducible
    ``sweep_summary.json`` + per-metric CSV tables.

Every subcommand accepts ``--format text|json``: the classic text
report, or the schema-versioned JSON envelope of the structured result
(validated in CI by ``python -m repro.api.validate``).

The flags of every workflow command are derived from its request
dataclass (:data:`repro.api.WORKFLOWS`): one ``--field-name`` flag per
field, with the field's type, default and help text.  Only CLI-only
options are written by hand: ``--format``, topology's positional output
path, ``simulate --list-scenarios``, ``agents list``, sweep's
``--spec | --smoke`` group and ``--list``, and the ``serve`` flags.

All argument parsing, validation, execution, and rendering live in
:mod:`repro.api.adapter` — this module only re-exports the adapter's
entry points so ``python -m repro.cli`` and the ``repro`` console
script keep working.  Programmatic consumers should use
:class:`repro.api.Session` directly.
"""

from __future__ import annotations

import sys

from repro.api.adapter import build_parser, dispatch, main

__all__ = ["build_parser", "dispatch", "main"]


if __name__ == "__main__":
    sys.exit(main())

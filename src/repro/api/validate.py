"""Envelope checker: ``python -m repro.api.validate file.json [...]``.

CI runs the JSON-emitting CLI paths (``repro experiments --format
json``, ``repro simulate --format json``) and feeds the output files to
this module, which enforces the envelope contract without re-running
anything:

- the document is a JSON object with the current integer
  ``schema_version`` and a known ``kind``;
- the kind's required payload keys (read from the codec registry) are
  present, in it and in every nested envelope;
- every number anywhere in the payload is finite (``NaN``/``Infinity``
  would not survive strict JSON parsers downstream).

Exit codes: 0 when every file validates, 1 when any file fails, 2 on
usage errors.  The module is also importable:
:func:`validate_envelope` returns the list of problems for one decoded
document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import Any

# Importing these registers every dataclass kind (requests, results,
# sections, engine-level envelopes) with the codec.
import repro.api.requests  # noqa: F401
import repro.sweep.executor  # noqa: F401
from repro.envelope import KINDS, SCHEMA_VERSION, nested_envelopes, required_keys

__all__ = ["REQUIRED_KEYS", "validate_envelope", "main"]

#: Required payload keys per envelope kind: every codec dataclass's
#: fields without a default, plus the serve layer's plain-dict kinds.
REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    **{kind: required_keys(cls) for kind, cls in KINDS.items()},
    "error_result": ("error", "exit_code", "http_status"),
    "serve_stats": ("requests_total", "result_cache", "coalescing", "session"),
    "serve_health": ("status",),
    "serve_log_record": ("method", "path", "status", "latency_ms"),
}


def _non_finite_paths(value: Any, path: str) -> list[str]:
    """JSON paths of every non-finite number inside a decoded document."""
    problems: list[str] = []
    if isinstance(value, bool):
        return problems
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            problems.append(path)
    elif isinstance(value, dict):
        for key, entry in value.items():
            problems.extend(_non_finite_paths(entry, f"{path}.{key}"))
    elif isinstance(value, list):
        for index, entry in enumerate(value):
            problems.extend(_non_finite_paths(entry, f"{path}[{index}]"))
    return problems


def validate_envelope(data: Any) -> list[str]:
    """Problems with one decoded envelope document (empty list = valid)."""
    problems = _contract_problems(data)
    if isinstance(data, dict):
        problems.extend(_non_finite_paths(data, "$"))
    return problems


def _contract_problems(data: Any) -> list[str]:
    """Header and required-key problems, recursing into nested envelopes."""
    if not isinstance(data, dict):
        return [f"envelope must be a JSON object, got {type(data).__name__}"]
    problems: list[str] = []
    version = data.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        problems.append(f"schema_version must be an integer, got {version!r}")
    elif version != SCHEMA_VERSION:
        problems.append(
            f"unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        )
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        problems.append(f"kind must be a non-empty string, got {kind!r}")
    elif kind not in REQUIRED_KEYS:
        problems.append(
            f"unknown kind {kind!r}; known: {', '.join(sorted(REQUIRED_KEYS))}"
        )
    else:
        missing = [key for key in REQUIRED_KEYS[kind] if key not in data]
        if missing:
            problems.append(
                f"kind {kind!r} is missing required key(s): {', '.join(missing)}"
            )
        # Nested envelopes (sections, a population, a job's result or
        # error) are checked recursively, so one top-level validation
        # covers the whole document.
        if kind in KINDS:
            for where, nested in nested_envelopes(KINDS[kind], data):
                problems.extend(
                    f"{where}: {problem}" for problem in _contract_problems(nested)
                )
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    """Validate envelope files; print a line per file; return the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.validate",
        description="Validate schema-versioned JSON envelope files.",
    )
    parser.add_argument("files", nargs="+", help="envelope JSON files to check")
    args = parser.parse_args(argv)

    failures = 0
    for name in args.files:
        path = Path(name)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            print(f"FAIL {name}: cannot read: {error.strerror or error}")
            failures += 1
            continue
        except json.JSONDecodeError as error:
            print(f"FAIL {name}: not valid JSON: {error}")
            failures += 1
            continue
        problems = validate_envelope(data)
        if problems:
            failures += 1
            print(f"FAIL {name}:")
            for problem in problems:
                print(f"  - {problem}")
        else:
            kind = data.get("kind")
            print(f"ok   {name}: {kind} (schema_version {data.get('schema_version')})")
    if failures:
        print(f"\n{failures} of {len(args.files)} file(s) failed validation")
        return 1
    print(f"\nall {len(args.files)} file(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())

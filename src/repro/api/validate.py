"""Envelope checker: ``python -m repro.api.validate file.json [...]``.

CI runs the JSON-emitting CLI paths (``repro experiments --format
json``, ``repro simulate --format json``) and feeds the output files to
this module, which enforces the envelope contract without re-running
anything:

- the document is a JSON object whose ``kind`` is registered in
  :data:`~repro.envelope.KINDS`;
- it decodes through that kind's codec (``from_json_dict``): the
  current ``schema_version``, every field of the right JSON type, no
  field missing or unknown, and every nested envelope decoded the same
  way, so a problem names its ``kind.field``;
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

# Importing this registers every kind the CLI and the server emit
# (requests, results, sections, serve envelopes) with the codec.
import repro.serve.service  # noqa: F401
from repro.envelope import KINDS
from repro.errors import ValidationError

__all__ = ["validate_envelope", "main"]


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
    if not isinstance(data, dict):
        return [f"envelope must be a JSON object, got {type(data).__name__}"]
    kind = data.get("kind")
    codec = KINDS.get(kind) if isinstance(kind, str) else None
    problems: list[str] = []
    if codec is None:
        problems.append(f"unknown kind {kind!r}; known: {', '.join(sorted(KINDS))}")
    else:
        try:
            codec.from_json_dict(data)
        except ValidationError as error:
            problems.append(str(error))
    return problems + _non_finite_paths(data, "$")


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

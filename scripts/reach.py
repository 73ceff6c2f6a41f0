#!/usr/bin/env python3
"""Which functions in ``src/`` no CLI workflow enters.

Runs the CLI workflows in this process at small scales under
``sys.setprofile``: topology (as-rel and GML), diversity, grc-all,
experiments (text and JSON), agents, negotiate, every simulate scenario
and ``sweep --smoke``.  It records each function that is called, then
prints one line per module of ``src/repro`` with the functions no
workflow entered, then one total per subpackage and one overall.  A
line of a module counts as unreached when the innermost ``def`` that
holds it was never entered.

Code that only ``repro serve``, ``--topology`` file input, the artifact
store, the examples or the tests call shows up here too: the list is
what no workflow reaches, not what is dead.

    python scripts/reach.py

Standard library only; the workflows need the repo's own dependencies.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
_SMALL = ["--tier1", "3", "--tier2", "8", "--tier3", "20", "--stubs", "50", "--seed", "7"]
_SCENARIOS = ("failure-churn", "marketplace", "flash-crowd", "marketplace-heterogeneous")


def workflows(scratch: Path) -> list[list[str]]:
    """The CLI invocations the trace runs, in order."""
    as_rel = str(scratch / "t.txt")
    return [
        ["topology", as_rel, *_SMALL],
        ["topology", str(scratch / "t.gml"), *_SMALL, "--format", "gml"],
        ["diversity", *_SMALL, "--sample-size", "20"],
        ["grc-all", *_SMALL, "--output", str(scratch / "grc.csv")],
        ["experiments", "--seed", "5", "--trials", "3"],
        ["experiments", "--seed", "5", "--trials", "3", "--format", "json"],
        ["agents", "list"],
        ["negotiate", "--trials", "3"],
        *(["simulate", "--scenario", name] for name in _SCENARIOS),
        [
            "sweep", "--smoke", "--jobs", "1",
            "--cache-dir", str(scratch / "cache"), "--out", str(scratch / "sweep"),
        ],
    ]


def trace(argvs: list[list[str]]) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object called while running ``argvs``."""
    sys.path.insert(0, str(SRC))
    from repro.api.adapter import main

    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    with open(os.devnull, "w") as sink:
        for argv in argvs:
            print("running: repro " + " ".join(argv), file=sys.stderr)
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(sink):
                    status = main(argv)
            finally:
                sys.setprofile(None)
            if status:
                raise SystemExit(f"repro {' '.join(argv)} exited {status}")
    return {(str(Path(name).resolve()), line) for name, line in entered}


def functions(path: Path) -> list[tuple[int, int, int, str]]:
    """``(code first line, def line, end line, qualified name)`` of every def."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its first decorator.
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                name = prefix + child.name
                found.append((first, child.lineno, child.end_lineno, name))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def report(entered: set[tuple[str, int]]) -> list[str]:
    """One line per module with unreached functions, then the totals."""
    lines = []
    # [missed functions, functions, missed lines, lines] per total.
    totals: dict[str, list[int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        defs = functions(path)
        # Pre-order: an inner def overwrites its outer def's lines.
        reached_line: dict[int, bool] = {}
        missed = []
        for first, lineno, end, name in defs:
            reached = (str(path.resolve()), first) in entered
            if not reached:
                missed.append(name)
            for line in range(lineno, end + 1):
                reached_line[line] = reached
        unreached = list(reached_line.values()).count(False)
        counts = (len(missed), len(defs), unreached, len(reached_line))
        parts = path.relative_to(PACKAGE).parts
        scopes = ["src/repro"] + (["src/repro/" + parts[0]] if len(parts) > 1 else [])
        for scope in scopes:
            total = totals.setdefault(scope, [0, 0, 0, 0])
            for i, count in enumerate(counts):
                total[i] += count
        if missed:
            module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
            lines.append(
                f"{module}: {len(missed)} of {len(defs)} functions, "
                f"{unreached} of {len(reached_line)} lines: {', '.join(missed)}"
            )
    # Subpackages first, the whole package last.
    for scope in sorted(totals, key=lambda scope: (scope == "src/repro", scope)):
        missed_functions, all_functions, missed_lines, all_lines = totals[scope]
        lines.append(
            f"total {scope}: {missed_functions} of {all_functions} functions and "
            f"{missed_lines} of {all_lines} lines inside defs never entered"
        )
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        entered = trace(workflows(Path(scratch)))
    print("\n".join(report(entered)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The naive oracles of :mod:`repro.reference` never reach shipped code.

Only the test suite and ``benchmarks/`` may import the module; inside
``src/repro`` the one file allowed to name it is ``reference.py`` itself.
``examples/`` and ``perfbench/`` never import it: the examples show the
production API, and the repository benchmark times production code.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"


def _names_reference(path: Path) -> bool:
    return any(
        name == "repro.reference" or name.startswith("repro.reference.")
        for name in _imported_modules(path)
    )


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports (or imports from)."""
    package = (
        ["repro", *path.relative_to(PACKAGE).parent.parts]
        if path.is_relative_to(PACKAGE)
        else []
    )
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *([node.module] if node.module else [])])
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_only_reference_py_names_repro_reference():
    offenders = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "reference.py"
        if _names_reference(path)
    ]
    assert offenders == []


def test_examples_and_perfbench_never_import_repro_reference():
    scripts = [
        path
        for directory in ("examples", "perfbench")
        for path in sorted((REPO / directory).rglob("*.py"))
    ]
    assert scripts
    assert [str(path.relative_to(REPO)) for path in scripts if _names_reference(path)] == []


def test_the_scan_sees_from_imports():
    names = _imported_modules(PACKAGE / "agents" / "negotiator.py")
    assert "repro.bargaining.mechanism" in names
    assert "repro.bargaining.mechanism.BoscoService" in names

"""The naive oracles of :mod:`repro.reference` never reach shipped code.

Only the test suite and ``benchmarks/`` may import the module; inside
``src/repro`` the one file allowed to name it is ``reference.py`` itself.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports (or imports from)."""
    package = ["repro", *path.relative_to(PACKAGE).parent.parts]
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
        if any(
            name == "repro.reference" or name.startswith("repro.reference.")
            for name in _imported_modules(path)
        )
    ]
    assert offenders == []


def test_the_scan_sees_from_imports():
    names = _imported_modules(PACKAGE / "agents" / "negotiator.py")
    assert "repro.bargaining.mechanism" in names
    assert "repro.bargaining.mechanism.BoscoService" in names

"""Every third-party module the code imports is declared in pyproject.toml.

The scan covers ``src/``, ``tests/`` and ``examples/`` and every import
statement, including the deferred ones inside functions.  pyproject.toml
is read with a small parser, because ``tomllib`` needs Python 3.11 and
CI still runs 3.10.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def imported_modules(directory: Path) -> set[str]:
    """Top-level names of every absolute import under ``directory``."""
    names: set[str] = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _table(text: str, name: str) -> str:
    """Body of one TOML table, up to the next table header."""
    match = re.search(rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert match, f"pyproject.toml has no [{name}] table"
    return match.group(1)


def _names(arrays: list[str]) -> set[str]:
    """Import names of the requirement strings in TOML array bodies."""
    requirements = re.findall(r'"([^"]+)"', "".join(arrays))
    return {re.split(r"[\s<>=!~;\[]", r)[0].lower().replace("-", "_") for r in requirements}


def declared_modules() -> dict[str, set[str]]:
    """The ``dependencies`` and every optional extra, as import names."""
    text = PYPROJECT.read_text(encoding="utf-8")
    project = _table(text, "project")
    extras = _table(text, "project.optional-dependencies")
    return {
        "dependencies": _names(re.findall(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S)),
        "extras": _names(re.findall(r"^[\w-]+\s*=\s*\[(.*?)\]", extras, re.M | re.S)),
    }


def third_party(names: set[str]) -> set[str]:
    return {n for n in names if n not in sys.stdlib_module_names and n != "repro"}


def test_src_imports_only_runtime_dependencies():
    declared = declared_modules()["dependencies"]
    assert third_party(imported_modules(ROOT / "src")) - declared == set()


@pytest.mark.parametrize("directory", ["tests", "examples"])
def test_tests_and_examples_import_only_declared_modules(directory):
    declared = declared_modules()
    allowed = declared["dependencies"] | declared["extras"]
    assert third_party(imported_modules(ROOT / directory)) - allowed == set()


def test_parser_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    extras = [r for group in project["optional-dependencies"].values() for r in group]
    assert declared_modules() == {
        "dependencies": _names([f'"{r}"' for r in project["dependencies"]]),
        "extras": _names([f'"{r}"' for r in extras]),
    }


def test_cli_import_loads_no_graph_library():
    """``repro.cli`` starts without networkx: the code has no use for it."""
    probe = "import sys, repro.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"

"""Cold start: package ``__init__``s resolve their exports on first access.

Every package keeps its ``__all__``, but names resolve lazily through a
module ``__getattr__`` (PEP 562, :mod:`repro._lazy`), so ``import
repro.cli`` loads the typed surface and no compute layer.  These tests
hold the export tables to the modules that define each name, the
``python -m`` entry points to a warning-free start, and the CLI import
to its time budget.
"""

import ast
import importlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = (
    "repro",
    "repro.agents",
    "repro.agreements",
    "repro.api",
    "repro.bargaining",
    "repro.core",
    "repro.economics",
    "repro.experiments",
    "repro.optimization",
    "repro.paths",
    "repro.routing",
    "repro.serve",
    "repro.simulation",
    "repro.sweep",
    "repro.topology",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _export_table(package: str) -> dict[str, str]:
    """Name → defining module, read from the package's ``lazy_exports`` call."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            table = ast.literal_eval(node.args[1])
            return {name: module for module, names in table.items() for name in names}
    raise AssertionError(f"{path} calls no lazy_exports")


def test_every_package_is_covered():
    found = sorted(
        ".".join(path.relative_to(SRC).parent.parts) for path in SRC.rglob("__init__.py")
    )
    assert found == sorted(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyExportTable:
    def test_every_name_resolves_to_its_defining_module(self, package):
        module = importlib.import_module(package)
        table = _export_table(package)
        eager = set(module.__all__) - set(table)
        for name in module.__all__:
            value = getattr(module, name)
            if name in eager:  # a constant the package itself binds
                assert name in vars(module)
                continue
            owner = importlib.import_module(table[name])
            assert value is getattr(owner, name), (package, name)
            if isinstance(value, type) or callable(value):
                assert value.__module__ == table[name], (package, name)
        assert set(table) <= set(module.__all__)

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_is_an_attribute_error_naming_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module {package!r} has no attribute"):
            module.no_such_export
        assert not hasattr(module, "no_such_export")

    def test_star_import_binds_every_export(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert {name: namespace[name] for name in module.__all__} == {
            name: getattr(module, name) for name in module.__all__
        }


@pytest.mark.parametrize(
    "module", ("repro.cli", "repro.experiments.runner", "repro.api.validate")
)
def test_python_dash_m_starts_without_runtime_warnings(module):
    """``runpy`` warns when ``-m``'s module was imported by its own package."""
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        env=_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_importing_the_cli_takes_at_most_twice_numpy():
    """``import repro.cli`` costs at most 2x ``import numpy`` in fresh processes.

    Runs alternate, so load on the host falls on both sides alike.
    """

    def seconds(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_env(), check=True)
        return time.perf_counter() - start

    cli, numpy = [], []
    for _ in range(5):
        cli.append(seconds("import repro.cli"))
        numpy.append(seconds("import numpy"))
    assert statistics.median(cli) <= 2.0 * statistics.median(numpy), (cli, numpy)

"""Lazy package exports (PEP 562).

Every package ``__init__`` of :mod:`repro` keeps its ``__all__`` but
imports none of it: a name resolves on first access, from the submodule
that defines it, and is then cached in the package's namespace.  So
``import repro.cli`` loads the typed surface only, and each compute
layer loads on the first call that needs it.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazy package.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  Use as
    ``__getattr__, __dir__ = lazy_exports(__name__, {...})``.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(owners[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owners})

    return __getattr__, __dir__

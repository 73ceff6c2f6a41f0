"""Facts about the host a result was measured on.

A number taken on a one-core or a loaded machine is only comparable with
numbers from a similar one, so every result records the usable cores,
the interpreter and library versions, and the one-minute load average.
"""

from __future__ import annotations

import os
import platform
from importlib import metadata

__all__ = ["host_facts", "load_1m"]


def load_1m() -> float:
    return round(os.getloadavg()[0], 2)


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _memory_mb() -> int | None:
    try:
        with open("/proc/meminfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def host_facts() -> dict[str, object]:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "memory_mb": _memory_mb(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }

"""Fixtures for the serve tests: a real server in a subprocess.

The integration tests exercise the full stack — sockets, the event
loop, signal handling — exactly as a deployment would, so they launch
``repro serve`` as a child process bound to an ephemeral port
(``--port 0``) and discover the port from the flushed startup line.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


class ServeProcess:
    """A running ``repro serve`` child, plus its discovered port."""

    def __init__(self, args: list[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if not match:  # pragma: no cover - startup failure diagnostics
            self.proc.kill()
            raise RuntimeError(
                f"serve did not start: {line!r}\n{self.proc.stderr.read()}"
            )
        self.port = int(match.group(1))

    def terminate_and_wait(self, timeout: float = 60.0) -> int:
        """SIGTERM the server and return its exit code (drained shutdown)."""
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


@pytest.fixture(scope="module")
def module_server():
    """One default-flag server shared by a whole module."""
    process = ServeProcess([])
    yield process
    process.kill()


@pytest.fixture()
def serve_process():
    """Launcher fixture: ``serve_process(["--flag", ...]) -> ServeProcess``."""
    started: list[ServeProcess] = []

    def launch(args: list[str]) -> ServeProcess:
        process = ServeProcess(args)
        started.append(process)
        return process

    yield launch
    for process in started:
        process.kill()

"""Structured JSONL request log of the serve subsystem.

One line per completed request, each a :class:`ServeLogRecord` envelope
(so ``python -m repro.api.validate`` decodes log records exactly like
any other envelope): method, path, status, latency, the queue depth
when the request arrived, the serving pid, the engine batch size it
rode in (negotiation only), and the cache disposition
(``hit``/``miss``/``bypass``).  A line is the compact form of the
envelope (no indent), still with sorted keys.

Every record is written as **one** ``write()`` call followed by a
``flush()``, and all writes happen on the event-loop thread — so a
reader tailing the file never sees an interleaved or truncated line,
and the graceful-shutdown drain (which waits for in-flight requests
before closing the log) leaves a file of complete lines.  That property
is pinned by the SIGTERM test in ``tests/serve/``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO

from repro.envelope import OMIT_IF_NONE, JsonCodec
from repro.errors import OutputError

__all__ = ["RequestLog", "ServeLogRecord"]


@dataclass(frozen=True)
class ServeLogRecord(JsonCodec):
    """One served request, as one line of the request log."""

    kind = "serve_log_record"

    method: str
    path: str
    status: int
    latency_ms: float
    queue_depth: int
    #: Workers of one supervisor may share a log file; the pid
    #: attributes every record to the process that served it.
    pid: int
    #: The envelope kind the request was routed to (absent on errors).
    kind_handled: str | None = field(default=None, metadata=OMIT_IF_NONE)
    cache: str | None = field(default=None, metadata=OMIT_IF_NONE)
    batch_size: int | None = field(default=None, metadata=OMIT_IF_NONE)


class RequestLog:
    """Append-only JSONL writer; ``path=None`` disables logging."""

    def __init__(self, path: str | None) -> None:
        self.path = path
        self._stream: IO[str] | None = None
        self.records_written = 0
        if path is not None:
            try:
                self._stream = open(path, "a", encoding="utf-8")
            except OSError as error:
                raise OutputError(
                    f"cannot open request log {path}: {error.strerror or error}"
                ) from error

    @property
    def enabled(self) -> bool:
        return self._stream is not None

    def record(
        self,
        *,
        method: str,
        path: str,
        status: int,
        latency_ms: float,
        queue_depth: int,
        kind: str | None = None,
        cache: str | None = None,
        batch_size: int | None = None,
    ) -> None:
        """Append one complete record (single write + flush)."""
        if self._stream is None:
            return
        record = ServeLogRecord(
            method=method,
            path=path,
            status=status,
            latency_ms=latency_ms,
            queue_depth=queue_depth,
            pid=os.getpid(),
            kind_handled=kind,
            cache=cache,
            batch_size=batch_size,
        )
        line = json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":"))
        self._stream.write(line + "\n")
        self._stream.flush()
        self.records_written += 1

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

"""The asyncio server: sockets, connection lifecycle, graceful drain.

``repro serve`` binds one listening socket and runs every connection on
the event loop; compute is delegated to the
:class:`~repro.serve.service.ServeService` executor.  The startup line

    ``repro serve: listening on http://HOST:PORT``

is printed (and flushed) once the socket is bound — with ``--port 0``
that is how tests, CI, and the benchmark discover the ephemeral port.

With ``--workers N`` (N ≥ 2) this module only delegates:
:func:`run_server` hands the config to the pre-fork supervisor
(:mod:`repro.serve.supervisor`), which binds the socket once, prints
the discovery line, and forks N workers that each run a
:class:`ReproServer` on the *inherited* socket (``start(sock=...,
announce=False)``) — one shared listen queue, so a killed worker's
pending connections are picked up by its siblings.

Shutdown (SIGTERM/SIGINT or :meth:`ReproServer.shutdown`) is a drain,
not an abort:

1. stop accepting connections and mark the service draining (new
   requests on kept-alive connections get ``503``);
2. wait until every in-flight request has produced and written its
   response — coalesced negotiation batches included;
3. stop the job runner after its in-flight job, wait for every queued
   and running negotiation batch, stop the worker, close the request
   log (whose records are single-write lines, so the file ends on a
   line boundary);
4. cancel the now-idle keep-alive readers and close the session.

Exit code 0 on a drained shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket as socket_module
from dataclasses import dataclass

from repro.api.results import ErrorResult
from repro.api.session import Session
from repro.errors import ValidationError
from repro.serve.http import (
    HttpProtocolError,
    read_request,
    response_bytes,
)
from repro.serve.log import RequestLog
from repro.serve.service import ServeService, serialize_envelope

__all__ = ["ServeConfig", "ReproServer", "run_server"]


@dataclass(frozen=True)
class ServeConfig:
    """Validated knobs of one server instance (CLI flags mirror fields).

    ``session_cache_limit`` bounds each internal cache of every worker's
    warm :class:`~repro.api.session.Session` (``None``: unbounded).
    """

    host: str = "127.0.0.1"
    port: int = 8000
    max_batch: int = 32
    cache_entries: int = 256
    session_cache_limit: int | None = None
    request_log: str | None = None
    workers: int = 1
    state_dir: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValidationError(
                f"--port must be in [0, 65535], got {self.port}"
            )
        if self.max_batch < 1:
            raise ValidationError(
                f"--max-batch must be a positive integer, got {self.max_batch}"
            )
        if self.cache_entries < 0:
            raise ValidationError(
                f"--cache-entries must be non-negative, got {self.cache_entries}"
            )
        if self.session_cache_limit is not None and self.session_cache_limit < 0:
            raise ValidationError(
                f"--session-cache-limit must be non-negative, "
                f"got {self.session_cache_limit}"
            )
        if self.workers < 1:
            raise ValidationError(
                f"--workers must be a positive integer, got {self.workers}"
            )


class ReproServer:
    """One listening socket in front of one :class:`ServeService`."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.session = Session(cache_limit=config.session_cache_limit)
        self.service = ServeService(
            self.session,
            max_batch=config.max_batch,
            cache_entries=config.cache_entries,
            request_log=RequestLog(config.request_log),
            state_dir=config.state_dir,
        )
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._inflight = 0
        self._idle: asyncio.Event = asyncio.Event()
        self._idle.set()
        self.port: int | None = None

    async def start(
        self,
        *,
        sock: socket_module.socket | None = None,
        announce: bool = True,
    ) -> None:
        """Bind (or adopt) the socket; print the discovery line.

        A supervisor worker passes the pre-bound listening socket it
        inherited across ``fork()`` as ``sock`` and sets
        ``announce=False`` — the supervisor already printed the
        discovery line, once, for the one shared socket.
        """
        if sock is not None:
            self._server = await asyncio.start_server(self._on_connection, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )
        self.port = self._server.sockets[0].getsockname()[1]
        self.service.job_runner.start()
        if announce:
            print(
                f"repro serve: listening on http://{self.config.host}:{self.port}",
                flush=True,
            )

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(reader)
            except HttpProtocolError as error:
                # Malformed framing is the client's error, like a bad body.
                failure = ErrorResult(str(error), exit_code=2, http_status=400)
                body = serialize_envelope(failure.to_json_dict())
                with contextlib.suppress(ConnectionError):
                    writer.write(response_bytes(400, body, keep_alive=False))
                    await writer.drain()
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            if request is None:
                return
            # The full request/response cycle counts as in-flight, so a
            # drain never truncates a response mid-write.
            self._inflight += 1
            self._idle.clear()
            try:
                status, body, headers = await self.service.handle(request)
                keep_alive = request.wants_keep_alive() and not self.service.draining
                writer.write(
                    response_bytes(
                        status, body, keep_alive=keep_alive, extra_headers=headers
                    )
                )
                await writer.drain()
            except ConnectionError:
                return
            finally:
                self._request_done()
            if not keep_alive:
                return

    def _request_done(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    async def shutdown(self) -> None:
        """Drain in-flight work, then tear everything down (idempotent)."""
        self.service.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # 1. Every accepted request finishes and writes its response.
        await self._idle.wait()
        # 2. Job runner/coalescer/executor/log shut down cleanly.
        await self.service.aclose()
        # 3. Remaining connections are idle keep-alive readers: cancel.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        self.session.close()


async def serve_until_signal(
    config: ServeConfig,
    *,
    sock: socket_module.socket | None = None,
    announce: bool = True,
    parent_pid: int | None = None,
) -> int:
    """Run one server until SIGTERM/SIGINT, then drain; returns 0.

    This is both the single-process body of :func:`run_server` and the
    per-worker body a supervisor child runs on its inherited socket.
    A worker passes ``parent_pid`` (the supervisor's pid): if the
    supervisor ever dies without fanning out the drain — SIGKILLed,
    crashed — the worker notices its reparenting and drains itself,
    so no orphan keeps holding the shared socket.  (On Linux the
    kernel-level ``PR_SET_PDEATHSIG`` the supervisor arms fires first;
    this watchdog is the portable cover.)
    """
    server = ReproServer(config)
    await server.start(sock=sock, announce=announce)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: list[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # non-main thread / platform
            pass
    watchdog: asyncio.Task | None = None
    if parent_pid is not None:

        async def watch_parent() -> None:
            while os.getppid() == parent_pid:
                await asyncio.sleep(1.0)
            stop.set()

        watchdog = loop.create_task(watch_parent())
    try:
        await stop.wait()
    finally:
        if watchdog is not None:
            watchdog.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await watchdog
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.shutdown()
    return 0


def run_server(config: ServeConfig) -> int:
    """Blocking entry point of ``repro serve``; returns the exit code."""
    if config.workers > 1:
        from repro.serve.supervisor import run_supervisor

        return run_supervisor(config)
    try:
        return asyncio.run(serve_until_signal(config))
    except KeyboardInterrupt:  # SIGINT raced the handler installation
        return 0

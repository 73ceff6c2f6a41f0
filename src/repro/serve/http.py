"""Minimal HTTP/1.1 framing over asyncio streams.

``repro serve`` speaks just enough HTTP for its JSON API — request-line
+ headers + ``Content-Length`` body in, status + headers + body out,
with keep-alive — implemented directly on :mod:`asyncio` streams so the
server adds **no runtime dependency**.  Anything outside that subset
(chunked uploads, expect/continue, upgrades) is rejected with a clear
:class:`HttpProtocolError`, which the connection loop turns into a
``400`` and a closed connection.

The module is deliberately transport-only: it never looks inside the
body.  Routing, JSON decoding, and envelope semantics live in
:mod:`repro.serve.service`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "MAX_BODY_BYTES",
    "REASONS",
    "HttpProtocolError",
    "HttpRequest",
    "read_request",
    "response_bytes",
]

#: Reject request bodies larger than this (a negotiate envelope is <1 KiB).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Reason phrases for every status the service emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpProtocolError(Exception):
    """Malformed or unsupported HTTP framing; the connection closes."""


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request: framing only, body bytes undecoded."""

    method: str
    path: str
    query: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def wants_keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as error:
        raise HttpProtocolError("header line too long") from error
    if line and not line.endswith(b"\n"):
        raise HttpProtocolError("truncated header line")
    return line.rstrip(b"\r\n")


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = MAX_BODY_BYTES
) -> HttpRequest | None:
    """Read one request; ``None`` on clean EOF before any bytes arrive."""
    start = await _read_line(reader)
    if not start:
        # Either EOF between keep-alive requests (fine) or a stray blank
        # line; both end the connection without an error response.
        return None
    parts = start.split()
    if len(parts) != 3:
        raise HttpProtocolError(f"malformed request line: {start[:80]!r}")
    method, target, version = (part.decode("latin-1") for part in parts)
    if not version.startswith("HTTP/1."):
        raise HttpProtocolError(f"unsupported protocol version {version!r}")
    path, _, query = target.partition("?")

    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpProtocolError(f"malformed header line: {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpProtocolError("chunked request bodies are not supported")
    length_text = headers.get("content-length", "0")
    # ASCII digits only: int() would also take "+10" and "1_0".
    if not (length_text.isascii() and length_text.isdigit()):
        raise HttpProtocolError(f"malformed Content-Length: {length_text!r}")
    # Compared as text first, since int() refuses over-long digit strings.
    digits = length_text.lstrip("0") or "0"
    if len(digits) > len(str(max_body)) or int(digits) > max_body:
        raise HttpProtocolError(
            f"request body of {digits} bytes exceeds the {max_body}-byte limit"
        )
    length = int(digits)
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise HttpProtocolError("request body ended early") from error
    return HttpRequest(
        method=method.upper(), path=path, query=query, headers=headers, body=body
    )


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Mapping[str, str] | None = None,
) -> bytes:
    """Serialize one complete response (headers + body) to wire bytes.

    ``extra_headers`` are emitted verbatim after the framing headers —
    the service uses them for ``X-Repro-Worker`` (the serving worker's
    pid), which must not leak into the body bytes.
    """
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body

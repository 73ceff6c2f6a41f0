"""HTTP framing: parsing, limits, keep-alive, response serialization."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.http import (
    HttpRequest,
    HttpProtocolError,
    read_request,
    response_bytes,
)


def parse(raw: bytes, **kwargs):
    """Feed raw bytes to a StreamReader and parse one request."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(run())


class TestParsing:
    def test_get_with_query_and_headers(self):
        request = parse(
            b"GET /stats?verbose=1 HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"X-Custom: Value \r\n"
            b"\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/stats"
        assert request.query == "verbose=1"
        # Header names are lower-cased, values stripped.
        assert request.headers["x-custom"] == "Value"
        assert request.body == b""

    def test_post_reads_exactly_content_length(self):
        request = parse(
            b"POST /negotiate HTTP/1.1\r\n"
            b"Content-Length: 4\r\n"
            b"\r\n"
            b'{"a"trailing-garbage'
        )
        assert request.method == "POST"
        assert request.body == b'{"a"'

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_keep_alive_is_the_default(self):
        request = parse(b"GET / HTTP/1.1\r\n\r\n")
        assert request.wants_keep_alive()

    def test_connection_close_is_honored(self):
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.wants_keep_alive()


class TestRejection:
    def test_malformed_request_line(self):
        with pytest.raises(HttpProtocolError, match="malformed request line"):
            parse(b"NOT-HTTP\r\n\r\n")

    def test_unsupported_protocol_version(self):
        with pytest.raises(HttpProtocolError, match="unsupported protocol"):
            parse(b"GET / SPDY/9\r\n\r\n")

    def test_malformed_header_line(self):
        with pytest.raises(HttpProtocolError, match="malformed header"):
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(HttpProtocolError, match="malformed Content-Length"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n")

    @pytest.mark.parametrize(
        "value", [b"1_0", b"+10", b"-1", b" 1 0", b"0x10", b"1e1", b"", b"\xb2"]
    )
    def test_content_length_is_ascii_digits_only(self, value):
        # int() would accept "1_0" and "+10" and frame a 10-byte body.
        with pytest.raises(HttpProtocolError, match="malformed Content-Length"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n0123456789")

    def test_over_long_content_length_is_too_large_not_a_crash(self):
        # int() refuses digit strings beyond 4300 characters.
        with pytest.raises(HttpProtocolError, match="exceeds"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n")

    def test_oversized_body_rejected_before_reading(self):
        with pytest.raises(HttpProtocolError, match="exceeds"):
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
                max_body=10,
            )

    def test_truncated_body(self):
        with pytest.raises(HttpProtocolError, match="ended early"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")

    def test_chunked_uploads_unsupported(self):
        with pytest.raises(HttpProtocolError, match="chunked"):
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")


class TestResponse:
    def test_response_bytes_frames_body_exactly(self):
        raw = response_bytes(200, b'{"ok": true}\n')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 13\r\n" in head
        assert head.endswith(b"Connection: keep-alive")
        assert body == b'{"ok": true}\n'

    def test_close_and_unknown_status(self):
        raw = response_bytes(599, b"", keep_alive=False)
        assert raw.startswith(b"HTTP/1.1 599 Unknown\r\n")
        assert b"Connection: close\r\n" in raw


REQUEST_PARTS = st.lists(
    st.sampled_from(
        [
            b"GET / HTTP/1.1\r\n",
            b"POST /v1/negotiate HTTP/1.1\r\n",
            b"Content-Length: 4\r\n",
            b"Content-Length: ",
            b"Transfer-Encoding: chunked\r\n",
            b"Connection: close\r\n",
            b"\r\n",
            b"\n",
            b"{}",
        ]
    )
    | st.binary(max_size=40),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(parts=REQUEST_PARTS)
def test_any_bytes_parse_or_raise_a_protocol_error(parts):
    try:
        result = parse(b"".join(parts))
    except HttpProtocolError:
        return
    assert result is None or isinstance(result, HttpRequest)

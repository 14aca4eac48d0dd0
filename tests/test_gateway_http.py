"""HTTP/1.1 framing unit tests (``repro.gateway.http``).

Feeds raw bytes through an ``asyncio.StreamReader`` — no sockets — and
pins the framing contract: well-formed requests parse, every violation
raises a typed :class:`SchemaError` with the right code, clean EOF is
``None``, and responses render to exact deterministic bytes.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.gateway.http import (
    DEFAULT_MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpRequest,
    read_request,
    render_response,
)
from repro.gateway.schemas import SchemaError


def parse(raw: bytes, **kwargs):
    """Run ``read_request`` over literal wire bytes."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


def parse_error(raw: bytes, **kwargs) -> SchemaError:
    """The SchemaError a byte sequence must raise."""
    with pytest.raises(SchemaError) as excinfo:
        parse(raw, **kwargs)
    return excinfo.value


def post(path: str, body: bytes, *extra_headers: str) -> bytes:
    """Assemble a well-formed POST for the happy-path tests."""
    head = [
        f"POST {path} HTTP/1.1",
        "Host: test",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *extra_headers,
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


class TestRequestParsing:
    def test_get_parses(self):
        request = parse(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/health"
        assert request.headers["host"] == "x"
        assert request.body == b""

    def test_post_with_body(self):
        request = parse(post("/v1/rewrite", b'{"query":"q"}'))
        assert request.method == "POST"
        assert request.json() == {"query": "q"}

    def test_query_string_is_stripped_from_path(self):
        request = parse(b"GET /v1/health?verbose=1 HTTP/1.1\r\n\r\n")
        assert request.path == "/v1/health"

    def test_header_names_lowercased_values_stripped(self):
        request = parse(b"GET / HTTP/1.1\r\nX-Thing:   padded \r\n\r\n")
        assert request.headers["x-thing"] == "padded"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_plus_json_content_type_accepted(self):
        raw = post("/v1/rewrite", b"{}").replace(
            b"application/json", b"application/problem+json"
        )
        assert parse(raw).json() == {}

    def test_missing_content_type_defaults_to_json(self):
        body = b'{"query":"q"}'
        raw = (
            b"POST /v1/rewrite HTTP/1.1\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        assert parse(raw).json() == {"query": "q"}


class TestBodyOnAnyMethod:
    """A declared body is consumed whatever the method, so it can never be
    read as the head of the connection's next request."""

    @staticmethod
    def parse_stream(raw: bytes, **kwargs):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return [await read_request(reader, **kwargs) for _ in range(3)]

        return asyncio.run(go())

    def test_get_with_a_body_leaves_the_stream_at_the_next_request(self):
        first, second, end = self.parse_stream(
            b"GET /v1/health HTTP/1.1\r\nContent-Type: text/plain\r\n"
            b"Content-Length: 5\r\n\r\nhello"
            b"GET /v1/stats HTTP/1.1\r\n\r\n"
        )
        assert (first.method, first.path, first.body) == ("GET", "/v1/health", b"hello")
        assert (second.method, second.path, second.body) == ("GET", "/v1/stats", b"")
        assert end is None

    def test_same_ceiling_and_framing_errors_as_post(self):
        head = b"DELETE /v1/health HTTP/1.1\r\nContent-Length: "
        assert parse_error(head + b"999\r\n\r\n", max_body_bytes=100).code == (
            "body_too_large"
        )
        assert parse_error(head + b"abc\r\n\r\n").code == "bad_request"
        assert parse_error(head + b"9\r\n\r\nshort").code == "bad_request"

    def test_length_is_still_required_of_post_only(self):
        assert parse(b"GET /v1/health HTTP/1.1\r\n\r\n").body == b""
        assert parse_error(b"POST /v1/drain HTTP/1.1\r\n\r\n").code == (
            "length_required"
        )


class TestFramingViolations:
    def test_truncated_head_is_bad_request(self):
        assert parse_error(b"GET /v1/health HTT").code == "bad_request"

    def test_malformed_request_line(self):
        assert parse_error(b"GETHTTP/1.1\r\n\r\n").code == "bad_request"
        assert parse_error(b"GET / SMTP/1.0\r\n\r\n").code == "bad_request"

    def test_malformed_header_line(self):
        error = parse_error(b"GET / HTTP/1.1\r\nnot a header\r\n\r\n")
        assert error.code == "bad_request"

    def test_post_without_content_length_is_411(self):
        error = parse_error(b"POST /v1/rewrite HTTP/1.1\r\n\r\n")
        assert error.code == "length_required"

    def test_malformed_content_length(self):
        for value in (b"abc", b"-5", b"1.5"):
            raw = (
                b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
            )
            assert parse_error(raw).code == "bad_request", value

    def test_declared_body_over_limit_is_413(self):
        raw = (
            b"POST / HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: 999\r\n\r\n"
        )
        assert parse_error(raw, max_body_bytes=100).code == "body_too_large"

    def test_default_body_limit_is_64k(self):
        raw = post("/v1/rewrite", b"x")[:-1].replace(
            b"Content-Length: 1",
            b"Content-Length: " + str(DEFAULT_MAX_BODY_BYTES + 1).encode(),
        )
        assert parse_error(raw).code == "body_too_large"

    def test_non_json_content_type_is_415(self):
        raw = post("/v1/rewrite", b"q=1").replace(
            b"application/json", b"application/x-www-form-urlencoded"
        )
        assert parse_error(raw).code == "unsupported_media_type"

    def test_truncated_body_is_bad_request(self):
        raw = post("/v1/rewrite", b'{"query":"q"}')[:-5]
        assert parse_error(raw).code == "bad_request"

    def test_oversized_head_is_bad_request(self):
        filler = b"X-Pad: " + b"a" * (MAX_HEADER_BYTES + 16) + b"\r\n"
        raw = b"GET / HTTP/1.1\r\n" + filler + b"\r\n"
        assert parse_error(raw).code == "bad_request"


class TestHttpRequest:
    def test_json_rejects_empty_body(self):
        request = HttpRequest("POST", "/", {}, b"")
        with pytest.raises(SchemaError) as excinfo:
            request.json()
        assert excinfo.value.code == "invalid_json"

    def test_json_rejects_garbage(self):
        for body in (b"{", b"not json", b"\xff\xfe"):
            request = HttpRequest("POST", "/", {}, body)
            with pytest.raises(SchemaError) as excinfo:
                request.json()
            assert excinfo.value.code == "invalid_json", body

    def test_keep_alive_default_and_close(self):
        assert HttpRequest("GET", "/", {}, b"").keep_alive is True
        assert (
            HttpRequest("GET", "/", {"connection": "close"}, b"").keep_alive
            is False
        )
        assert (
            HttpRequest("GET", "/", {"connection": "Keep-Alive"}, b"").keep_alive
            is True
        )


class TestRenderResponse:
    def test_exact_bytes(self):
        raw = render_response(200, {"a": 1, "b": [2, 3]})
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Content-Type: application/json" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: keep-alive" in lines
        # compact, key-order-preserving JSON — the golden byte form
        assert body == b'{"a":1,"b":[2,3]}'

    def test_reason_phrases_cover_the_error_surface(self):
        for status, phrase in (
            (400, "Bad Request"), (404, "Not Found"),
            (405, "Method Not Allowed"), (411, "Length Required"),
            (413, "Payload Too Large"), (415, "Unsupported Media Type"),
            (429, "Too Many Requests"), (500, "Internal Server Error"),
            (503, "Service Unavailable"),
        ):
            raw = render_response(status, {})
            assert raw.startswith(f"HTTP/1.1 {status} {phrase}\r\n".encode())

    def test_extra_headers_and_close(self):
        raw = render_response(
            429, {}, extra_headers={"Retry-After": "0.050"}, keep_alive=False
        )
        head = raw.split(b"\r\n\r\n")[0].decode("latin-1")
        assert "Retry-After: 0.050" in head
        assert "Connection: close" in head

    def test_body_round_trips_as_json(self):
        payload = {"error": {"code": "not_found", "message": "no route"}}
        raw = render_response(404, payload)
        body = raw.split(b"\r\n\r\n", 1)[1]
        assert json.loads(body) == payload

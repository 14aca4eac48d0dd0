"""Minimal HTTP/1.1 framing over asyncio streams (no dependencies).

The gateway speaks just enough HTTP for a JSON API: request-line +
headers parsing, ``Content-Length``-framed bodies, keep-alive
connections, and JSON responses with deterministic serialization.  Every
framing violation is a typed :class:`~repro.gateway.schemas.SchemaError`
(``bad_request``, ``length_required``, ``body_too_large``,
``unsupported_media_type``) so the app layer can answer with the same
4xx envelope it uses for schema failures — malformed wire input never
becomes an unhandled exception.

Limits are deliberately tight (8 KiB of headers, 64 KiB of body by
default): this is a front door for short JSON queries, not a general
proxy.
"""

from __future__ import annotations

import asyncio
import json

from repro.gateway.schemas import (
    BAD_REQUEST,
    BODY_TOO_LARGE,
    LENGTH_REQUIRED,
    UNSUPPORTED_MEDIA_TYPE,
    SchemaError,
)

#: request line + headers must fit in this many bytes
MAX_HEADER_BYTES = 8192
#: default cap on a request body (overridable per gateway)
DEFAULT_MAX_BODY_BYTES = 64 * 1024

#: reason phrases for every status the gateway can emit
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpRequest:
    """One parsed request: method, path, lower-cased headers, raw body."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: dict, body: bytes):
        """``headers`` keys must already be lower-cased."""
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def json(self):
        """Decode the body as JSON; ``invalid_json`` SchemaError if not."""
        if not self.body:
            raise SchemaError("invalid_json", "request body must be JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise SchemaError("invalid_json", "request body is not valid JSON")

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection (HTTP/1.1)."""
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def read_request(
    reader, *, max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
) -> HttpRequest | None:
    """Read one request off the stream; None on clean EOF before a byte.

    Raises :class:`SchemaError` on any framing violation — the caller
    answers with the matching 4xx and closes the connection (framing
    errors leave the stream position undefined, so keep-alive is off the
    table).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise SchemaError(BAD_REQUEST, "truncated request head")
    except asyncio.LimitOverrunError:
        raise SchemaError(BAD_REQUEST, "request head exceeds the stream limit")
    except ConnectionError:
        return None
    if len(head) > MAX_HEADER_BYTES:
        raise SchemaError(BAD_REQUEST, "request head exceeds 8 KiB")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise SchemaError(BAD_REQUEST, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    path = target.split("?", 1)[0]

    headers: dict = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise SchemaError(BAD_REQUEST, f"malformed header line {line!r}")
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()

    # A declared body is consumed whatever the method: left in the stream
    # it would be read as the head of the connection's next request.
    body = b""
    if method == "POST" and "content-length" not in headers:
        raise SchemaError(LENGTH_REQUIRED, "POST requires a Content-Length header")
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
            if length < 0:
                raise ValueError
        except ValueError:
            raise SchemaError(BAD_REQUEST, "malformed Content-Length")
        if length > max_body_bytes:
            raise SchemaError(
                BODY_TOO_LARGE,
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        if method == "POST":  # the only method whose body a route decodes
            content_type = headers.get("content-type", "application/json")
            media_type = content_type.split(";", 1)[0].strip().lower()
            if media_type != "application/json" and not media_type.endswith("+json"):
                raise SchemaError(
                    UNSUPPORTED_MEDIA_TYPE,
                    f"content type {media_type!r} is not JSON",
                )
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception:
                raise SchemaError(BAD_REQUEST, "request body truncated")
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def render_response(
    status: int,
    payload: dict,
    *,
    extra_headers: dict | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one JSON response to wire bytes (headers + body).

    The body is compact, key-order-preserving JSON — the byte form the
    golden fixture pins.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def write_response(
    writer,
    status: int,
    payload: dict,
    *,
    extra_headers: dict | None = None,
    keep_alive: bool = True,
) -> None:
    """Write one JSON response and flush the stream."""
    writer.write(
        render_response(
            status, payload, extra_headers=extra_headers, keep_alive=keep_alive
        )
    )
    await writer.drain()

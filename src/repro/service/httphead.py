"""HTTP/1.1 request heads in, response heads out: one codec, no I/O.

Every front door (the threaded server of :mod:`repro.service.http`, the
asyncio server of :mod:`repro.service.aio` and the cluster router) reads the
request line and the header lines off its own socket and hands the bytes
here.  :func:`parse_request_line` and :func:`parse_head` decide what they
mean; :func:`response_head` builds every status line and header block the
doors write.  With one parser the doors frame the same bytes the same way,
and the threaded doors never run :func:`http.client.parse_headers` (the
:mod:`email` feed parser), which was most of their per-request CPU.

Limits: a line over :data:`MAX_LINE` bytes or more than :data:`MAX_HEADERS`
header lines is 431; a request line that is not ``METHOD PATH HTTP/x.y`` is
400 and ``HTTP/2`` or later 505; an obs-fold continuation line, a header line
without a colon and a ``Content-Length`` that is not a non-negative integer
(or two that disagree, a request-smuggling shape) are 400.  A path starting
with ``//`` collapses to ``/``, the open-redirect guard of the stdlib server.
"""

from __future__ import annotations

import re
from http import HTTPStatus
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "CONTINUE", "MAX_HEADERS", "MAX_LINE", "HeadError", "RequestHead",
    "parse_head", "parse_request_line", "response_head",
]

#: Longest request or header line, in bytes (the stdlib server's limit).
MAX_LINE = 65536
#: Most header lines in one request (the stdlib server's limit).
MAX_HEADERS = 100
#: The interim response to ``Expect: 100-continue``.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)
_KNOWN_VERSIONS = ("HTTP/1.1", "HTTP/1.0")


class HeadError(Exception):
    """A request head the server cannot frame: answer ``status``, then close."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class RequestHead(NamedTuple):
    method: str
    path: str
    version: str
    #: Header values by lowercase name; a repeated header keeps its first value.
    headers: Dict[str, str]
    #: The declared ``Content-Length`` (0 when absent).
    length: int
    keep_alive: bool
    expects_continue: bool


def parse_request_line(line: bytes) -> Tuple[str, str, str]:
    """``(method, path, version)`` of a request line; raises :class:`HeadError`."""
    if len(line) > MAX_LINE:
        raise HeadError(414, "request line too long")
    words = line.decode("latin-1").split()
    if len(words) != 3:
        raise HeadError(400, f"unparseable request line {line[:80]!r}")
    method, path, version = words
    if version not in _KNOWN_VERSIONS:
        match = _VERSION.fullmatch(version)
        if match is None:
            raise HeadError(400, f"bad HTTP version {version[:20]!r}")
        if int(match.group(1)) >= 2:
            raise HeadError(505, f"HTTP version {version} is not supported")
        if int(match.group(1)) != 1:
            raise HeadError(400, f"bad HTTP version {version!r}")
    if path.startswith("//"):
        path = "/" + path.lstrip("/")
    return method, path, version


def parse_head(start: Tuple[str, str, str], header_lines: Sequence[bytes]) -> RequestHead:
    """The head of a parsed request line and its header lines (no blank line).

    A front door reads at most ``MAX_HEADERS + 1`` lines of at most
    ``MAX_LINE + 1`` bytes each and passes what it read, so both limits are
    decided here.  Raises :class:`HeadError`.
    """
    if len(header_lines) > MAX_HEADERS:
        raise HeadError(431, f"more than {MAX_HEADERS} header lines")
    headers: Dict[str, str] = {}
    for raw in header_lines:
        if len(raw) > MAX_LINE:
            raise HeadError(431, "header line too long")
        text = raw.decode("latin-1")
        name, sep, value = text.partition(":")
        if not sep or not name or name[0] in " \t" or name[-1] in " \t":
            # Covers obs-fold continuation lines, which start with whitespace.
            raise HeadError(400, f"malformed header line {text[:80]!r}")
        key = name.lower()
        value = value.strip()
        seen = headers.setdefault(key, value)
        if key == "content-length" and seen != value:
            raise HeadError(400, "conflicting Content-Length headers")
    raw_length = headers.get("content-length")
    if raw_length is None:
        length = 0
    elif raw_length.isdigit() and raw_length.isascii():
        length = int(raw_length)
    else:
        raise HeadError(
            400, f"Content-Length must be a non-negative integer, got {raw_length!r}"
        )
    connection = headers.get("connection", "").lower()
    http11 = start[2] != "HTTP/1.0"
    return RequestHead(
        *start, headers, length,
        connection != "close" if http11 else connection == "keep-alive",
        http11 and headers.get("expect", "").lower() == "100-continue",
    )


def response_head(
    status: int,
    content_type: str,
    length: int,
    *,
    keep_alive: bool,
    extra: Optional[Mapping[str, str]] = None,
) -> bytes:
    """The status line and header block of a response with a ``length``-byte body."""
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    if extra:
        head += "".join(f"{name}: {value}\r\n" for name, value in extra.items())
    return (head + "\r\n").encode("latin-1")

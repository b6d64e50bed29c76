"""HTTP/1.1 request heads in, response heads out: one codec, no I/O.

Every front door (the threaded server of :mod:`repro.service.http`, the
asyncio server of :mod:`repro.service.aio` and the cluster router) reads the
request line and the header lines off its own socket and hands the bytes
here.  :func:`parse_request_line` and :func:`parse_head` decide what they
mean; :func:`response_head` builds every status line and header block the
doors write, and the router frames its shard hop with :func:`request_head`
and :func:`parse_response_head`.  With one parser the doors frame the same
bytes the same way, and no server path runs
:func:`http.client.parse_headers` (the :mod:`email` feed parser), which was
most of the threaded doors' per-request CPU.

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
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "CONTINUE", "MAX_HEADERS", "MAX_LINE", "HeadError", "RequestHead",
    "parse_head", "parse_request_line", "parse_response_head",
    "read_header_lines", "request_head", "response_head",
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


def read_header_lines(readline: Callable[[int], bytes]) -> Optional[List[bytes]]:
    """The header lines of a head read with a blocking ``readline``.

    Reads up to the blank line, or stops after ``MAX_HEADERS + 1`` lines or
    one over ``MAX_LINE`` bytes so the parser decides the limit; ``None``
    when the peer hangs up first.
    """
    lines: List[bytes] = []
    while True:
        raw = readline(MAX_LINE + 1)
        if raw in (b"\r\n", b"\n"):
            return lines
        if not raw:
            return None
        lines.append(raw)
        if len(lines) > MAX_HEADERS or len(raw) > MAX_LINE:
            return lines


def parse_head(start: Tuple[str, str, str], header_lines: Sequence[bytes]) -> RequestHead:
    """The head of a parsed request line and its header lines (no blank line).

    A front door reads at most ``MAX_HEADERS + 1`` lines of at most
    ``MAX_LINE + 1`` bytes each (:func:`read_header_lines`) and passes what
    it read, so both limits are decided here.  Raises :class:`HeadError`.
    """
    headers, length = _fields(header_lines)
    connection = headers.get("connection", "").lower()
    http11 = start[2] != "HTTP/1.0"
    return RequestHead(
        *start, headers, length or 0,
        connection != "close" if http11 else connection == "keep-alive",
        http11 and headers.get("expect", "").lower() == "100-continue",
    )


def parse_response_head(
    status_line: bytes, header_lines: Sequence[bytes]
) -> Tuple[int, Dict[str, str], Optional[int]]:
    """``(status, headers, Content-Length or None)`` of a response head.

    The client side of the codec: the cluster router reads its shards'
    responses with it.  Raises :class:`HeadError`.
    """
    words = status_line.decode("latin-1").split(None, 2)
    if len(words) < 2 or not words[0].startswith("HTTP/1.") or not words[1].isdigit():
        raise HeadError(502, f"unparseable status line {status_line[:80]!r}")
    headers, length = _fields(header_lines)
    return int(words[1]), headers, length


def _fields(header_lines: Sequence[bytes]) -> Tuple[Dict[str, str], Optional[int]]:
    """Header values by lowercase name, and the ``Content-Length`` if declared."""
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
        return headers, None
    if raw_length.isdigit() and raw_length.isascii():
        return headers, int(raw_length)
    raise HeadError(
        400, f"Content-Length must be a non-negative integer, got {raw_length!r}"
    )


def request_head(
    method: str, path: str, length: int, headers: Mapping[str, str]
) -> bytes:
    """The request line and header block of a request with a ``length``-byte body."""
    head = f"{method} {path} HTTP/1.1\r\nContent-Length: {length}\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    return (head + "\r\n").encode("latin-1")


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

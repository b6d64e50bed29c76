"""The threaded HTTP/1.1 door of :class:`~repro.service.QueryService`.

Pure stdlib: :mod:`http.server`'s thread-per-connection loop over the shared
head codec of :mod:`repro.service.httphead`.  Each request is read here and
answered by the request core (:class:`repro.service.app.App`), which owns
every route and the protocol reference; deferred work (a cold query, a
batch, a registration, an admin mutation) runs inline on the connection's
thread.  The threading server leans on the service's own locks: budget
admission is atomic and identical concurrent queries coalesce.

Hardening: the request head is parsed by :mod:`repro.service.httphead`,
the codec all three front doors share, never by :mod:`http.server`'s
:mod:`email`-based header parser.  A framing error is answered in the v1
JSON envelope and closes the connection: an unparseable request line or a
malformed header line (obs-fold included) is 400, an over-long request line
414, an over-long header line or more than 100 headers 431, ``HTTP/2`` or
later 505, a method other than ``GET``/``POST`` 405, and a non-integer,
negative or conflicting ``Content-Length`` 400.  A declared body beyond
``max_body`` bytes is answered 413 without reading it, also under
``Expect: 100-continue``; any other body is read in full (invited with
``100 Continue`` first when expected) before the core answers, so a
refused request keeps its connection.  Each response leaves as one write
(status line, ``Content-Type``, ``Content-Length``, ``Connection``, extra
headers, body).  A client that disconnects mid-request or mid-response is
swallowed silently and counted in the ``frontend`` section of
``GET /datasets`` — a disconnect is a counter, never a traceback in the
server log.
"""

from __future__ import annotations

import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.service import httphead, wire
from repro.service.app import App, json_response
from repro.service.executor import QueryService

__all__ = ["DEFAULT_MAX_BODY", "HeadHandler", "ServiceServer", "make_server", "serve_forever"]

#: Default cap on request body size; oversized posts are answered with 413
#: instead of being read unbounded into memory.
DEFAULT_MAX_BODY = 1 << 20

#: A peer that went away mid-request or mid-response.  Never an error worth a
#: log line, let alone a traceback: the connection is simply over.
_DISCONNECT_ERRORS = (
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
    TimeoutError,
)


class ClientDisconnect(Exception):
    """The client hung up before the request could be answered."""


class PayloadTooLarge(Exception):
    """The declared request body exceeds the server's size cap."""


class HeadHandler(BaseHTTPRequestHandler):
    """:mod:`http.server`'s connection loop over the shared head codec.

    ``handle_one_request`` still reads the request line (answering 414 past
    64 KiB), applies socket timeouts and calls the ``do_*`` methods; the
    header block is parsed by :mod:`repro.service.httphead` into
    :attr:`head`, and every response leaves as one write of head and body.
    The threaded front door and the cluster router both build on it; their
    servers provide ``max_body``, ``quiet`` and ``count_disconnect()``.
    """

    protocol_version = "HTTP/1.1"
    # A response is one write, but two writes in a row on one connection (a
    # 100 Continue and its answer, or answers to pipelined requests) would
    # otherwise wait out the client's delayed ACK (~40 ms) with Nagle on.
    disable_nagle_algorithm = True
    head: httphead.RequestHead

    def parse_request(self) -> bool:
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "latin-1").rstrip("\r\n")
        if not self.requestline.strip():
            return False  # a bare line ending: hang up, as http.server does
        try:
            start = httphead.parse_request_line(self.raw_requestline)
            lines = []
            while True:
                raw = self.rfile.readline(httphead.MAX_LINE + 1)
                if raw in (b"\r\n", b"\n"):
                    break
                if not raw:  # EOF inside the head: the client hung up
                    self.server.count_disconnect()
                    return False
                lines.append(raw)
                if len(lines) > httphead.MAX_HEADERS or len(raw) > httphead.MAX_LINE:
                    break
            self.head = httphead.parse_head(start, lines)
        except httphead.HeadError as exc:
            self.send_error(exc.status, str(exc))
            return False
        self.command, self.path = self.head.method, self.head.path
        self.request_version = self.head.version
        if self.command not in ("GET", "POST"):
            self._send_json(405, wire.method_not_allowed(self.command))
            return False
        self.close_connection = not self.head.keep_alive
        return True

    def send_error(self, code: int, message: Optional[str] = None, explain=None) -> None:
        """Framing refusals, ours and http.server's 414, in the v1 envelope."""
        self.close_connection = True
        self._send_json(code, wire.bad_request(message or self.responses[code][0]))

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        self._send_body(*json_response(code, payload))

    def _send_body(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        if not self.server.quiet:
            self.log_request(code, len(body))
        head = httphead.response_head(
            code, content_type, len(body),
            keep_alive=not self.close_connection, extra=headers,
        )
        try:
            self.wfile.write(head + body)
        except _DISCONNECT_ERRORS:
            # The client went away mid-response.  Writing anything more
            # (including a 500) to the dead socket would only raise again and
            # leak a traceback into the log; swallow, count, hang up.
            self.server.count_disconnect()
            self.close_connection = True

    def _read_body(self) -> bytes:
        """The request body (``b""`` when none); raises on 413 and on hang-up."""
        length = self.head.length
        max_body = self.server.max_body
        if max_body is not None and length > max_body:
            # The body stays unread, so keep-alive framing cannot continue.
            self.close_connection = True
            raise PayloadTooLarge
        if not length:
            return b""
        try:
            if self.head.expects_continue:
                self.wfile.write(httphead.CONTINUE)
            raw = self.rfile.read(length)
        except _DISCONNECT_ERRORS as exc:
            raise ClientDisconnect from exc
        if len(raw) < length:
            # The client promised `length` bytes and hung up early.
            raise ClientDisconnect
        return raw

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if self.server.quiet:
            return
        super().log_message(format, *args)


class _Handler(HeadHandler):
    """Reads each request, lets the server's :class:`App` answer, writes it."""

    server: "ServiceServer"

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        try:
            result = self.server.app.handle(
                self.command, self.path, self.head.headers, self._read_body()
            )
            self._send_body(*(result() if callable(result) else result))
        except ClientDisconnect:
            self.server.count_disconnect()
            self.close_connection = True
        except PayloadTooLarge:
            self._send_json(413, wire.too_large(self.head.length, self.server.max_body))
        except Exception as exc:  # noqa: BLE001 - must never leak a traceback
            self._send_json(500, wire.internal_error(exc))

    do_GET = do_POST  # the core routes both methods


class ServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`QueryService`."""

    daemon_threads = True
    # The socketserver default backlog of 5 resets connections under fan-in
    # (hundreds of clients connecting at once); queue them instead.
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        service: QueryService,
        *,
        allow_register: bool = False,
        quiet: bool = False,
        max_body: Optional[int] = DEFAULT_MAX_BODY,
        limiter: Optional[Any] = None,
        admin: Optional[Any] = None,
    ):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet
        self.max_body = max_body
        self.app = App(
            service, limiter=limiter, admin=admin, allow_register=allow_register,
            frontend="threaded", frontend_stats=self.frontend_stats,
        )
        self._stats_lock = threading.Lock()
        self._disconnects = 0

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def count_disconnect(self) -> None:
        with self._stats_lock:
            self._disconnects += 1

    @property
    def disconnects(self) -> int:
        with self._stats_lock:
            return self._disconnects

    def frontend_stats(self) -> Dict[str, Any]:
        """Front-end counters reported under ``frontend`` in ``GET /datasets``."""
        return {
            "frontend": "threaded",
            "disconnects": self.disconnects,
            "max_body": self.max_body,
        }

    def handle_error(self, request, client_address) -> None:
        """Keep the log traceback-free for socket-level failures.

        The stdlib default prints a full traceback for *any* exception that
        escapes the handler — including a client disconnecting between our
        response and the connection teardown, which is routine under load.
        """
        exc = sys.exc_info()[1]
        if isinstance(exc, _DISCONNECT_ERRORS):
            self.count_disconnect()
            return
        print(
            f"error handling request from {client_address}: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
            flush=True,
        )


def make_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    allow_register: bool = False,
    quiet: bool = False,
    max_body: Optional[int] = DEFAULT_MAX_BODY,
    limiter: Optional[Any] = None,
    admin: Optional[Any] = None,
) -> ServiceServer:
    """Bind a :class:`ServiceServer` (``port=0`` picks an ephemeral port)."""
    return ServiceServer(
        (host, port), service,
        allow_register=allow_register, quiet=quiet, max_body=max_body,
        limiter=limiter, admin=admin,
    )


def serve_forever(server: ServiceServer) -> threading.Thread:
    """Run ``server`` on a daemon thread; returns the (started) thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread

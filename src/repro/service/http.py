"""Thin HTTP front-end for :class:`~repro.service.QueryService`.

Pure stdlib (:mod:`http.server`), JSON in / JSON out.  The threading server
leans on the service's own locks: budget admission is atomic, identical
concurrent queries coalesce, and every answer is a structured JSON object —
a refusal is a *response*, never an exception escaping into the log.

Every response body is built by :mod:`repro.service.wire` (the v1 envelope:
``"api": 1`` plus a structured ``error`` object), so this module and the
async front-end cannot drift apart on document shapes.

Protocol
--------
``GET /health``
    ``{"api": 1, "status": "ok", "datasets": [...names...]}`` — liveness.
``GET /datasets``
    Per-dataset budget snapshots (including each dataset's ``kinds``
    allowlist and ``draining`` flag) plus cache counters (the
    :meth:`QueryService.stats` document).
``GET /kinds``
    The estimator-spec registry catalogue: every servable kind with its
    typed parameter schema, reservation factor, minimum record count and
    result shape — the authoritative list a client should consult before
    querying.  An unknown ``kind`` in a query is answered with a structured
    400 whose body carries the same list (``error.code = "unknown_kind"``).
``GET /metrics``
    Prometheus text exposition (version 0.0.4): the ``stats()`` counters
    plus per-kind / per-outcome request-latency histograms and — when
    observability is on — per-kind / per-analyst epsilon-spent gauges.
``GET /debug/traces`` / ``GET /debug/traces/<id>``
    Recent request traces from the bounded in-memory ring, newest first
    (404 ``tracing_disabled`` without an ``[observability]`` tracer).  A
    traced ``POST /query`` response echoes its ``"trace"`` id — minted per
    request, or honoured from an ``X-Repro-Trace-Id`` header — for lookup
    here or via ``repro trace <id>``.
``POST /query``
    Body: a query object —
    ``{"dataset": ..., "kind": ..., "epsilon": ..., "beta": ...,``
    ``"params": {"levels": [...]}, "analyst": ...}`` — or
    ``{"queries": [...]}`` with a list of such objects, which is answered
    as one batch through the service's engine-pool fan-out.  (Kind
    parameters live under ``params`` only; the legacy top-level ``levels``
    alias is gone with its deprecation window.)  Response: the answer
    document (or ``{"answers": [...]}``).  HTTP status mirrors the
    outcome: 200 for ``ok``/``failed`` (a failed propose-test-release is a
    valid, budgeted DP outcome), 403 for budget refusals, 404 for unknown
    datasets, 400 for malformed requests, 429 for per-analyst/per-kind
    rate limits (refused *before* admission: the budget ledger is
    untouched), 503 ``coordinator_unavailable`` when the dataset draws on
    a cluster joint budget whose coordinator is unreachable.  Batch
    responses are always 200; inspect each answer's ``status``.
``POST /datasets``
    Registration (only when the server was built with
    ``allow_register=True``): ``{"name": ..., "values": [...],``
    ``"budget": ..., "analyst_budgets": {...}}`` → 201.
``GET /admin/state`` / ``POST /admin/reload`` / ``POST /admin/drain``
    The live control plane (:class:`~repro.service.admin.AdminController`),
    authenticated with ``Authorization: Bearer <token>`` or
    ``X-Admin-Token``; 403 ``admin_disabled`` when no controller (or no
    secret) is configured.

Hardening: the request head is parsed by :mod:`repro.service.httphead`,
the codec all three front doors share, never by :mod:`http.server`'s
:mod:`email`-based header parser.  A framing error is answered in the v1
JSON envelope and closes the connection: an unparseable request line or a
malformed header line (obs-fold included) is 400, an over-long request line
414, an over-long header line or more than 100 headers 431, ``HTTP/2`` or
later 505, and a non-integer, negative or conflicting ``Content-Length``
400.  A declared body beyond ``max_body`` bytes is answered 413 without
reading it, also under ``Expect: 100-continue``; any other expected body is
invited with ``100 Continue`` first.  Each response leaves as one write
(status line, ``Content-Type``, ``Content-Length``, ``Connection``, body).
A client that disconnects mid-request or mid-response is swallowed
silently and counted in the ``frontend`` section of ``GET /datasets`` — a
refusal is a response and a disconnect is a counter, never a traceback in
the server log.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError
from repro.obs import span as obs_span
from repro.service import httphead, wire
from repro.service.executor import QueryService
from repro.service.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service.queries import InvalidQueryError

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

    def _send_json(
        self,
        code: int,
        payload: Dict[str, Any],
        *,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(code, body, "application/json", headers)

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

    def _read_json(self, *, allow_empty: bool = False) -> Any:
        length = self.head.length
        max_body = self.server.max_body
        if max_body is not None and length > max_body:
            # The body stays unread, so keep-alive framing cannot continue.
            self.close_connection = True
            raise PayloadTooLarge
        raw = b""
        if length:
            try:
                if self.head.expects_continue:
                    self.wfile.write(httphead.CONTINUE)
                raw = self.rfile.read(length)
            except _DISCONNECT_ERRORS as exc:
                raise ClientDisconnect from exc
            if len(raw) < length:
                # The client promised `length` bytes and hung up early.
                raise ClientDisconnect
        if not raw:
            if allow_empty:
                return None
            raise InvalidQueryError("request body is empty")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidQueryError(f"request body is not valid JSON: {exc}") from exc

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if self.server.quiet:
            return
        super().log_message(format, *args)


class _Handler(HeadHandler):
    """Request handler; the service instance hangs off the server object."""

    server: "ServiceServer"

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        try:
            if self.path == "/health":
                self._send_json(200, wire.health_document(self.server.service))
            elif self.path == "/datasets":
                self._send_json(
                    200,
                    wire.stats_document(
                        self.server.service, frontend=self.server.frontend_stats()
                    ),
                )
            elif self.path == "/kinds":
                self._send_json(200, wire.kinds_document(self.server.service))
            elif self.path == "/metrics":
                self._send_body(
                    200,
                    render_prometheus(
                        self.server.service,
                        frontend=self.server.frontend_stats(),
                        limiter=self.server.limiter,
                    ).encode("utf-8"),
                    PROMETHEUS_CONTENT_TYPE,
                )
            elif self.path == "/debug/traces" or self.path.startswith("/debug/traces/"):
                self._handle_traces()
            elif self.path.startswith("/admin"):
                self._handle_admin("GET")
            else:
                self._send_json(404, wire.unknown_path("GET", self.path))
        except _DISCONNECT_ERRORS:
            self.server.count_disconnect()
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - must never leak a traceback
            self._send_json(500, wire.internal_error(exc))

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        try:
            if self.path == "/query":
                self._handle_query()
            elif self.path == "/datasets":
                self._handle_register()
            elif self.path.startswith("/admin"):
                self._handle_admin("POST")
            else:
                self._send_json(404, wire.unknown_path("POST", self.path))
        except ClientDisconnect:
            self.server.count_disconnect()
            self.close_connection = True
        except PayloadTooLarge:
            self._send_json(413, wire.too_large(self.head.length, self.server.max_body))
        except _DISCONNECT_ERRORS:
            self.server.count_disconnect()
            self.close_connection = True
        except ReproError as exc:
            self._send_json(400, wire.invalid_request(exc))
        except Exception as exc:  # noqa: BLE001 - must never leak a traceback
            self._send_json(500, wire.internal_error(exc))

    def _check_rate_limit(self, request) -> Optional[Any]:
        """The pre-admission QoS gate: a decision means *refuse with 429*.

        Runs before any budget or cache access, so a 429 costs the ledger
        nothing; the refusal is still visible in the latency histogram under
        the ``rate_limited`` outcome (at zero recorded latency).
        """
        limiter = self.server.limiter
        if limiter is None:
            return None
        decision = limiter.check(request.analyst, request.query.kind)
        if decision is not None:
            self.server.service.metrics.observe(
                request.query.kind, "rate_limited", 0.0
            )
            wire.audit_rate_limit(self.server.service, request, decision)
        return decision

    def _handle_query(self) -> None:
        """Open (and always finish) the per-request trace around the answer path.

        The trace is finished *before* the response bytes leave, so a client
        that reads the echoed trace id off the answer can immediately inspect
        it via ``GET /debug/traces/<id>`` — there is no window where the
        answer is visible but its trace is not.
        """
        tracer = self.server.service.tracer
        trace = None
        if tracer is not None:
            trace = tracer.start(
                self.head.headers.get("x-repro-trace-id"), frontend="threaded"
            )
        headers: Optional[Dict[str, str]] = None
        try:
            status, document, headers = self._answer_query(trace)
        except ReproError as exc:
            # Answered here (not in do_POST) so the 400 document can echo the
            # trace id like every other traced response.
            if trace is not None:
                trace.annotate(status="invalid")
            status, document = 400, wire.with_trace(
                wire.invalid_request(exc),
                trace.trace_id if trace is not None else None,
            )
        finally:
            if tracer is not None and trace is not None:
                tracer.finish(trace)
        self._send_json(status, document, headers=headers)

    def _answer_query(self, trace) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        service = self.server.service
        trace_id = trace.trace_id if trace is not None else None
        with obs_span(trace, "read_body"):
            payload = self._read_json()
        if isinstance(payload, dict) and "queries" in payload:
            entries = payload["queries"]
            if not isinstance(entries, list):
                raise InvalidQueryError("'queries' must be a list of query objects")
            with obs_span(trace, "parse", queries=len(entries)):
                parsed = [wire.parse_request(entry) for entry in entries]
            if trace is not None:
                trace.annotate(queries=len(parsed))
            docs: List[Optional[Dict[str, Any]]] = [None] * len(parsed)
            admitted = []
            with obs_span(trace, "rate_check"):
                for index, request in enumerate(parsed):
                    decision = self._check_rate_limit(request)
                    if decision is not None:
                        docs[index] = wire.rate_limited_answer(request, decision)
                    else:
                        admitted.append(index)
            answers = service.submit_many(
                [parsed[index] for index in admitted], trace=trace
            )
            with obs_span(trace, "serialize"):
                for index, answer in zip(admitted, answers):
                    docs[index] = wire.answer_document(answer)
                document = wire.with_trace(wire.answers_document(docs), trace_id)
            return 200, document, None
        with obs_span(trace, "parse"):
            request = wire.parse_request(payload)
        if trace is not None:
            trace.annotate(
                dataset=request.dataset,
                kind=request.query.kind,
                analyst=request.analyst,
            )
        with obs_span(trace, "rate_check") as info:
            decision = self._check_rate_limit(request)
            info["limited"] = decision is not None
        if decision is not None:
            if trace is not None:
                trace.annotate(status="rate_limited")
            return (
                429,
                wire.with_trace(wire.rate_limited_answer(request, decision), trace_id),
                {"Retry-After": wire.retry_after_header(decision)},
            )
        answer = service.submit(request, trace=trace)
        if trace is not None:
            trace.annotate(status=answer.status, cached=answer.cached)
        with obs_span(trace, "serialize"):
            document = wire.with_trace(wire.answer_document(answer), trace_id)
        return wire.answer_status_code(answer), document, None

    def _handle_traces(self) -> None:
        tracer = self.server.service.tracer
        if tracer is None:
            self._send_json(404, wire.tracing_disabled())
            return
        if self.path == "/debug/traces":
            self._send_json(200, wire.traces_document(tracer))
            return
        trace_id = self.path[len("/debug/traces/"):]
        code, doc = wire.trace_document(tracer, trace_id)
        self._send_json(code, doc)

    def _handle_register(self) -> None:
        if not self.server.allow_register:
            self._send_json(403, wire.registration_disabled())
            return
        code, doc = wire.register_response(self.server.service, self._read_json())
        self._send_json(code, doc)

    def _handle_admin(self, method: str) -> None:
        admin = self.server.admin
        if admin is None:
            if method == "POST":
                self._read_json(allow_empty=True)  # keep keep-alive framing
            self._send_json(403, wire.admin_disabled())
            return
        token = wire.bearer_token(
            self.head.headers.get("authorization"),
            self.head.headers.get("x-admin-token"),
        )
        payload = self._read_json(allow_empty=True) if method == "POST" else None
        code, doc = admin.handle(method, self.path, payload, token)
        self._send_json(code, doc)


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
        self.allow_register = allow_register
        self.quiet = quiet
        self.max_body = max_body
        self.limiter = limiter
        self.admin = admin
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

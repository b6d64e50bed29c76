"""Asyncio HTTP/1.1 front-end for :class:`~repro.service.QueryService`.

The threaded front-end (:mod:`repro.service.http`) spends one OS thread per
connection; at hundreds of concurrent clients the GIL and the scheduler eat
the cached path alive.  This module serves the *same* service from a single
event loop (pure stdlib: :func:`asyncio.start_server` plus the shared
HTTP/1.1 head codec of :mod:`repro.service.httphead` — no new dependencies):

* **Fast paths run on the loop.**  Cache hits, sure budget refusals, invalid
  requests and rate-limit refusals are answered without leaving the event
  loop (:meth:`QueryService.peek` — lock-guarded dict lookups, never an
  estimator run), so the hot cached path is one task switch per request.
* **Cold queries leave the loop.**  A request that needs a fresh release is
  dispatched to a small thread pool via ``run_in_executor`` and flows through
  the untouched admission → coalesce → fan-out → commit pipeline of
  :class:`QueryService`.  Because both front-ends execute the identical
  service code and every query's randomness derives from
  ``(service seed, canonical key)``, answers are **bit-for-bit identical**
  across front-ends and worker counts.
* **Keep-alive and pipelining.**  Each connection is one task reading
  requests in order; pipelined requests queue in the stream buffer and are
  answered in order.
* **Hardening is the threaded front-end's.**  The same codec parses every
  request head, so a framing error gets the same v1 envelope and status on
  both (400, 414, 431, 505; a malformed or conflicting ``Content-Length`` is
  400), an oversized body → 413 (never read into memory, and answered
  instead of ``100 Continue``), an expected body is invited with
  ``100 Continue``, and a peer disconnecting mid-request or mid-response is
  swallowed and counted — the log stays traceback-free by construction.
* **Timeouts without tasks.**  Each read and drain runs in its own
  ``asyncio.timeout(keepalive_timeout)`` scope: a timer, not a task per
  wait.  An idle keep-alive connection times out quietly; a client that
  stalls mid-head or mid-body (slowloris) is reclaimed and counted.

Every response body comes from :mod:`repro.service.wire` (the v1 envelope),
and the route surface matches the threaded front-end exactly: ``/health``,
``/datasets``, ``/kinds``, ``/metrics`` (Prometheus text), ``/query``
(single or batch, with pre-admission per-analyst / per-kind rate limiting),
``/debug/traces`` (the observability ring; traced ``/query`` responses echo
their ``"trace"`` id, honouring ``X-Repro-Trace-Id``), ``/datasets``
registration, and the authenticated ``/admin`` control plane
(state / reload / drain; mutating operations run off-loop in the executor).

``GET /datasets`` reports the front-end counters (requests, loop-answered,
executor-dispatched, disconnects, malformed) under the ``frontend`` key.

Entry points: :func:`start_async_server` (coroutine),
:func:`serve_async` (blocking, for the CLI) and :class:`AsyncServerThread`
(run the loop on a daemon thread — the blocking-world counterpart of
:func:`repro.service.http.serve_forever`, used by tests and benchmarks).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.obs import span as obs_span
from repro.service import httphead, wire
from repro.service.executor import QueryService
from repro.service.http import DEFAULT_MAX_BODY
from repro.service.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service.queries import InvalidQueryError

__all__ = [
    "AsyncServiceServer",
    "AsyncServerThread",
    "start_async_server",
    "serve_async",
]

class _Hangup(Exception):
    """Stop serving this connection (peer gone or framing unrecoverable)."""


class AsyncServiceServer:
    """One event loop serving a :class:`QueryService` over HTTP/1.1.

    Parameters mirror :func:`repro.service.http.make_server` (including the
    ``limiter`` QoS gate and the ``admin`` control plane);
    ``executor_threads`` sizes the pool that runs cold (estimator-executing)
    queries off the loop, and ``keepalive_timeout`` bounds every per-request
    wait — idle time between requests, header/body reads, and response
    drain — so a stalled client cannot pin its connection task forever.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        allow_register: bool = False,
        quiet: bool = False,
        max_body: Optional[int] = DEFAULT_MAX_BODY,
        executor_threads: Optional[int] = None,
        keepalive_timeout: float = 75.0,
        limiter: Optional[Any] = None,
        admin: Optional[Any] = None,
    ):
        self.service = service
        self._host = host
        self._port = port
        self.allow_register = allow_register
        self.quiet = quiet
        self.max_body = max_body
        self.limiter = limiter
        self.admin = admin
        self._keepalive_timeout = keepalive_timeout
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-aio-query"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._bound: Optional[Tuple[str, int]] = None
        # Open connections, task -> writer (event-loop thread only).
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        # Touched only from the event-loop thread; read anywhere (CPython int
        # loads are atomic, and the stats are monitoring data, not invariants).
        self._counters: Dict[str, int] = {
            "requests": 0,
            "answered_on_loop": 0,
            "executed": 0,
            "disconnects": 0,
            "malformed": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "AsyncServiceServer":
        """Bind and start accepting connections (``port=0`` → ephemeral)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, backlog=512
        )
        self._bound = self._server.sockets[0].getsockname()[:2]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, close open connections and await them, then close.

        Keep-alive connections idle in a read would otherwise outlive the
        loop and be destroyed while pending.  Closing a transport ends its
        idle read with EOF; a request already executing finishes first (its
        answer is released and charged either way) and its response is
        dropped.
        """
        if self._server is not None:
            self._server.close()
            connections = dict(self._connections)
            for writer in connections.values():
                writer.close()
            await asyncio.gather(*connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    @property
    def url(self) -> str:
        assert self._bound is not None, "server is not started"
        host, port = self._bound
        return f"http://{host}:{port}"

    @property
    def server_address(self) -> Tuple[str, int]:
        assert self._bound is not None, "server is not started"
        return self._bound

    def frontend_stats(self) -> Dict[str, Any]:
        """Front-end counters reported under ``frontend`` in ``GET /datasets``."""
        stats: Dict[str, Any] = {"frontend": "async", "max_body": self.max_body}
        stats.update(self._counters)
        return stats

    @property
    def disconnects(self) -> int:
        return self._counters["disconnects"]

    # -- connection handling -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        try:
            self._connections[task] = writer
            while await self._serve_one(reader, writer):
                pass
        except _Hangup:
            pass
        except (ConnectionError, asyncio.IncompleteReadError):
            self._counters["disconnects"] += 1
        except Exception as exc:  # noqa: BLE001 - a connection must never leak a traceback
            if not self.quiet:
                print(
                    f"error on connection: {type(exc).__name__}: {exc}",
                    file=sys.stderr,
                    flush=True,
                )
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read and answer one request; returns whether to keep the connection."""
        try:
            try:
                async with asyncio.timeout(self._keepalive_timeout):
                    raw_line = await reader.readline()
            except TimeoutError:
                return False  # idle keep-alive connection
            except ValueError:  # request line beyond the stream's line limit
                raise httphead.HeadError(414, "request line too long") from None
            if not raw_line.strip():
                return False  # clean close (or bare CRLF) between requests
            start = httphead.parse_request_line(raw_line)
            try:
                async with asyncio.timeout(self._keepalive_timeout):
                    lines = await self._head_lines(reader)
            except TimeoutError:
                # A stalled (slowloris-style) client: reclaim the connection.
                self._counters["disconnects"] += 1
                return False
            head = httphead.parse_head(start, lines)
        except httphead.HeadError as exc:
            self._counters["malformed"] += 1
            await self._send(writer, exc.status, wire.bad_request(str(exc)),
                             keep_alive=False, log="-")
            return False
        self._counters["requests"] += 1
        log = f"{head.method} {head.path}"
        if head.method == "GET":
            return await self._handle_get(head.path, head.headers, writer, head.keep_alive, log)
        if head.method == "POST":
            return await self._handle_post(head, reader, writer, log)
        await self._send(writer, 405, wire.method_not_allowed(head.method),
                         keep_alive=False, log=log)
        return False

    async def _head_lines(self, reader: asyncio.StreamReader) -> List[bytes]:
        """The header lines before the blank line, at most one past the limit."""
        lines: List[bytes] = []
        while len(lines) <= httphead.MAX_HEADERS:
            try:
                raw = await reader.readline()
            except ValueError:  # beyond the stream's line limit
                raise httphead.HeadError(431, "header line too long") from None
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:  # EOF mid-headers: the client hung up
                self._counters["disconnects"] += 1
                raise _Hangup
            lines.append(raw)
        return lines

    def _check_rate_limit(self, request) -> Optional[Any]:
        """The pre-admission QoS gate (see the threaded front-end's twin).

        Runs on the loop — the limiter check is one lock plus arithmetic —
        and a refusal never touches budget, cache or executor.
        """
        if self.limiter is None:
            return None
        decision = self.limiter.check(request.analyst, request.query.kind)
        if decision is not None:
            self.service.metrics.observe(request.query.kind, "rate_limited", 0.0)
            wire.audit_rate_limit(self.service, request, decision)
        return decision

    # -- routes ------------------------------------------------------------
    async def _handle_get(
        self,
        path: str,
        headers: Dict[str, str],
        writer: asyncio.StreamWriter,
        keep_alive: bool,
        log: str,
    ) -> bool:
        try:
            if path == "/health":
                await self._send(writer, 200, wire.health_document(self.service),
                                 keep_alive=keep_alive, log=log)
            elif path == "/datasets":
                await self._send(
                    writer, 200,
                    wire.stats_document(self.service, frontend=self.frontend_stats()),
                    keep_alive=keep_alive, log=log,
                )
            elif path == "/kinds":
                await self._send(writer, 200, wire.kinds_document(self.service),
                                 keep_alive=keep_alive, log=log)
            elif path == "/metrics":
                text = render_prometheus(
                    self.service,
                    frontend=self.frontend_stats(),
                    limiter=self.limiter,
                )
                await self._send_raw(
                    writer, 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE,
                    keep_alive=keep_alive, log=log,
                )
            elif path == "/debug/traces" or path.startswith("/debug/traces/"):
                tracer = self.service.tracer
                if tracer is None:
                    await self._send(writer, 404, wire.tracing_disabled(),
                                     keep_alive=keep_alive, log=log)
                elif path == "/debug/traces":
                    await self._send(writer, 200, wire.traces_document(tracer),
                                     keep_alive=keep_alive, log=log)
                else:
                    code, doc = wire.trace_document(
                        tracer, path[len("/debug/traces/"):]
                    )
                    await self._send(writer, code, doc, keep_alive=keep_alive, log=log)
            elif path.startswith("/admin"):
                code, doc = self._admin_dispatch("GET", path, None, headers)
                await self._send(writer, code, doc, keep_alive=keep_alive, log=log)
            else:
                await self._send(writer, 404, wire.unknown_path("GET", path),
                                 keep_alive=keep_alive, log=log)
        except (_Hangup, ConnectionError):
            raise
        except Exception as exc:  # noqa: BLE001 - must never leak a traceback
            await self._send(writer, 500, wire.internal_error(exc),
                             keep_alive=keep_alive, log=log)
        return keep_alive

    def _admin_dispatch(
        self,
        method: str,
        path: str,
        payload: Any,
        headers: Dict[str, str],
    ) -> Tuple[int, Dict[str, Any]]:
        if self.admin is None:
            return 403, wire.admin_disabled()
        token = wire.bearer_token(
            headers.get("authorization"), headers.get("x-admin-token")
        )
        return self.admin.handle(method, path, payload, token)

    async def _handle_post(
        self,
        head: httphead.RequestHead,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        log: str,
    ) -> bool:
        path, headers, keep_alive = head.path, head.headers, head.keep_alive
        length = head.length
        if self.max_body is not None and length > self.max_body:
            # Refused by the declared size: the body is never read, so the
            # connection cannot continue.
            await self._send(writer, 413, wire.too_large(length, self.max_body),
                             keep_alive=False, log=log)
            return False
        if length == 0:
            # An empty POST /admin/reload means "re-read the booted config".
            if path.startswith("/admin"):
                return await self._handle_admin_post(
                    path, None, headers, writer, keep_alive, log
                )
            await self._send(writer, 400, wire.bad_request("request body is empty"),
                             keep_alive=keep_alive, log=log)
            return keep_alive
        if head.expects_continue:
            writer.write(httphead.CONTINUE)
        try:
            async with asyncio.timeout(self._keepalive_timeout):
                body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, TimeoutError):
            # Hung up early, or stalled without ever delivering the promised
            # bytes — either way the request is unrecoverable.
            self._counters["disconnects"] += 1
            raise _Hangup from None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._send(
                writer, 400,
                wire.bad_request(f"request body is not valid JSON: {exc}"),
                keep_alive=keep_alive, log=log,
            )
            return keep_alive

        loop = asyncio.get_running_loop()
        try:
            if path == "/query":
                return await self._handle_query(
                    payload, headers, writer, keep_alive, log, loop
                )
            elif path == "/datasets":
                if not self.allow_register:
                    await self._send(writer, 403, wire.registration_disabled(),
                                     keep_alive=keep_alive, log=log)
                else:
                    code, doc = await loop.run_in_executor(
                        self._executor, wire.register_response, self.service, payload
                    )
                    await self._send(writer, code, doc, keep_alive=keep_alive, log=log)
            elif path.startswith("/admin"):
                return await self._handle_admin_post(
                    path, payload, headers, writer, keep_alive, log
                )
            else:
                await self._send(writer, 404, wire.unknown_path("POST", path),
                                 keep_alive=keep_alive, log=log)
        except (_Hangup, ConnectionError):
            raise
        except ReproError as exc:
            await self._send(writer, 400, wire.invalid_request(exc),
                             keep_alive=keep_alive, log=log)
        except Exception as exc:  # noqa: BLE001 - must never leak a traceback
            await self._send(writer, 500, wire.internal_error(exc),
                             keep_alive=keep_alive, log=log)
        return keep_alive

    async def _handle_query(
        self,
        payload: Any,
        headers: Dict[str, str],
        writer: asyncio.StreamWriter,
        keep_alive: bool,
        log: str,
        loop: asyncio.AbstractEventLoop,
    ) -> bool:
        """Answer ``POST /query`` under one per-request trace.

        The trace is opened on the loop, handed *sequentially* to the
        executor thread for cold queries (never touched by two threads at
        once), and finished here whatever the outcome — including the 400
        path, so invalid requests echo their trace id like any other.  It is
        finished *before* the response bytes leave, so a client that reads
        the echoed trace id can immediately inspect it via
        ``GET /debug/traces/<id>``.
        """
        tracer = self.service.tracer
        trace = None
        if tracer is not None:
            trace = tracer.start(headers.get("x-repro-trace-id"), frontend="async")
        trace_id = trace.trace_id if trace is not None else None
        try:
            if isinstance(payload, dict) and "queries" in payload:
                status, document = await self._handle_batch(payload, loop, trace)
            else:
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
                    self._counters["answered_on_loop"] += 1
                    if trace is not None:
                        trace.annotate(status="rate_limited")
                    status, document = 429, wire.with_trace(
                        wire.rate_limited_answer(request, decision), trace_id
                    )
                else:
                    answer = self.service.peek(request, trace=trace)
                    if answer is not None:
                        self._counters["answered_on_loop"] += 1
                    else:
                        self._counters["executed"] += 1
                        answer = await loop.run_in_executor(
                            self._executor,
                            partial(self.service.submit, request, trace=trace),
                        )
                    if trace is not None:
                        trace.annotate(status=answer.status, cached=answer.cached)
                    with obs_span(trace, "serialize"):
                        document = wire.with_trace(
                            wire.answer_document(answer), trace_id
                        )
                    status = wire.answer_status_code(answer)
        except (_Hangup, ConnectionError):
            raise
        except ReproError as exc:
            if trace is not None:
                trace.annotate(status="invalid")
            status, document = 400, wire.with_trace(
                wire.invalid_request(exc), trace_id
            )
        finally:
            if tracer is not None and trace is not None:
                tracer.finish(trace)
        await self._send(writer, status, document, keep_alive=keep_alive, log=log)
        return keep_alive

    async def _handle_batch(
        self,
        payload: Dict[str, Any],
        loop: asyncio.AbstractEventLoop,
        trace: Optional[Any] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        trace_id = trace.trace_id if trace is not None else None
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
        self._counters["executed"] += 1
        answers = await loop.run_in_executor(
            self._executor,
            partial(
                self.service.submit_many,
                [parsed[index] for index in admitted],
                trace=trace,
            ),
        )
        with obs_span(trace, "serialize"):
            for index, answer in zip(admitted, answers):
                docs[index] = wire.answer_document(answer)
            document = wire.with_trace(wire.answers_document(docs), trace_id)
        return 200, document

    async def _handle_admin_post(
        self,
        path: str,
        payload: Any,
        headers: Dict[str, str],
        writer: asyncio.StreamWriter,
        keep_alive: bool,
        log: str,
    ) -> bool:
        try:
            if self.admin is None:
                await self._send(writer, 403, wire.admin_disabled(),
                                 keep_alive=keep_alive, log=log)
                return keep_alive
            token = wire.bearer_token(
                headers.get("authorization"), headers.get("x-admin-token")
            )
            # Reloads load dataset sources and take the admin lock: off-loop.
            loop = asyncio.get_running_loop()
            code, doc = await loop.run_in_executor(
                self._executor, self.admin.handle, "POST", path, payload, token
            )
            await self._send(writer, code, doc, keep_alive=keep_alive, log=log)
        except (_Hangup, ConnectionError):
            raise
        except Exception as exc:  # noqa: BLE001 - must never leak a traceback
            await self._send(writer, 500, wire.internal_error(exc),
                             keep_alive=keep_alive, log=log)
        return keep_alive

    # -- response writing ---------------------------------------------------
    async def _send(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        payload: Dict[str, Any],
        *,
        keep_alive: bool,
        log: str,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        await self._send_raw(writer, code, body, "application/json",
                             keep_alive=keep_alive, log=log)

    async def _send_raw(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        body: bytes,
        content_type: str,
        *,
        keep_alive: bool,
        log: str,
    ) -> None:
        head = httphead.response_head(
            code, content_type, len(body), keep_alive=keep_alive
        )
        writer.write(head + body)
        try:
            async with asyncio.timeout(self._keepalive_timeout):
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            # Mid-response disconnect (or a peer that stopped reading):
            # count it and end the connection quietly.
            self._counters["disconnects"] += 1
            raise _Hangup from None
        if not self.quiet:
            print(f'async "{log}" {code}', file=sys.stderr, flush=True)


async def start_async_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> AsyncServiceServer:
    """Build and start an :class:`AsyncServiceServer` on the running loop."""
    server = AsyncServiceServer(service, host, port, **kwargs)
    await server.start()
    return server


def serve_async(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    on_ready: Optional[Callable[[AsyncServiceServer], None]] = None,
    **kwargs: Any,
) -> None:
    """Run the async front-end until interrupted (blocking; used by the CLI).

    ``on_ready(server)`` fires once the socket is bound — the CLI uses it to
    print the (possibly ephemeral) listening URL.
    """

    async def _main() -> None:
        server = await start_async_server(service, host, port, **kwargs)
        try:
            if on_ready is not None:
                on_ready(server)
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()

    asyncio.run(_main())


class AsyncServerThread:
    """Run :class:`AsyncServiceServer` on a dedicated event-loop thread.

    The blocking-world counterpart of :func:`repro.service.http.serve_forever`
    for the async front-end: tests, benchmarks and mixed deployments call
    :meth:`start`, read :attr:`url`, then :meth:`stop`.  Usable as a context
    manager.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs: Any,
    ):
        self._args = (service, host, port)
        self._kwargs = kwargs
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-aio-loop"
        )
        self.server: Optional[AsyncServiceServer] = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def start(self, timeout: float = 10.0) -> "AsyncServerThread":
        self._thread.start()
        service, host, port = self._args
        future = asyncio.run_coroutine_threadsafe(
            start_async_server(service, host, port, **self._kwargs), self._loop
        )
        self.server = future.result(timeout)
        return self

    @property
    def url(self) -> str:
        assert self.server is not None, "call start() first"
        return self.server.url

    def stop(self, timeout: float = 10.0) -> None:
        if self.server is not None:
            asyncio.run_coroutine_threadsafe(
                self.server.aclose(), self._loop
            ).result(timeout)
            self.server = None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "AsyncServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

"""The asyncio HTTP/1.1 door of :class:`~repro.service.QueryService`.

The threaded door (:mod:`repro.service.http`) spends one OS thread per
connection; at hundreds of concurrent clients the GIL and the scheduler eat
the cached path alive.  This module serves the *same* service from a single
event loop (pure stdlib: :func:`asyncio.start_server` plus the shared
HTTP/1.1 head codec of :mod:`repro.service.httphead` — no new dependencies).
Every request is answered by the request core both doors share
(:class:`repro.service.app.App`), which owns the routes and the protocol
reference:

* **What the core answers at once stays on the loop.**  Cache hits, sure
  budget refusals, invalid requests, rate-limit refusals and every read
  surface cost one task switch per request.
* **Deferred work leaves the loop.**  A cold query, a batch, a
  registration or an admin mutation comes back from the core as a callable,
  which runs in a small thread pool via ``run_in_executor``.  Because both
  doors execute the identical core and service code and every query's
  randomness derives from ``(service seed, canonical key)``, answers are
  **bit-for-bit identical** across doors and worker counts.
* **Keep-alive and pipelining.**  Each connection is one task reading
  requests in order; pipelined requests queue in the stream buffer and are
  answered in order.
* **Hardening is the threaded door's.**  The same codec parses every
  request head, so a framing error gets the same v1 envelope and status on
  both (400, 414, 431, 505; a malformed or conflicting ``Content-Length`` is
  400; a method other than ``GET``/``POST`` is 405), an oversized body →
  413 (never read into memory, and answered instead of ``100 Continue``),
  any other body is read in full (invited with ``100 Continue`` when
  expected) before the core answers, and a peer disconnecting mid-request
  or mid-response is swallowed and counted — the log stays traceback-free
  by construction.
* **Timeouts without tasks.**  Each read and drain runs in its own
  ``asyncio.timeout(keepalive_timeout)`` scope: a timer, not a task per
  wait.  An idle keep-alive connection times out quietly; a client that
  stalls mid-head or mid-body (slowloris) is reclaimed and counted.

``GET /datasets`` reports the door's counters (requests, answered on the
loop, deferred to the executor, disconnects, malformed) under the
``frontend`` key.

Entry points: :func:`start_async_server` (coroutine),
:func:`serve_async` (blocking, for the CLI) and :class:`AsyncServerThread`
(run the loop on a daemon thread — the blocking-world counterpart of
:func:`repro.service.http.serve_forever`, used by tests and benchmarks).
"""

from __future__ import annotations

import asyncio
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service import httphead, wire
from repro.service.app import App, Response, json_response
from repro.service.executor import QueryService
from repro.service.http import DEFAULT_MAX_BODY

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
    ``executor_threads`` sizes the pool that runs the core's deferred work
    (cold queries, batches, registrations, admin mutations) off the loop,
    and ``keepalive_timeout`` bounds every per-request wait — idle time
    between requests, header/body reads, and response drain — so a stalled
    client cannot pin its connection task forever.
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
        self.quiet = quiet
        self.max_body = max_body
        self.app = App(
            service, limiter=limiter, admin=admin, allow_register=allow_register,
            frontend="async", frontend_stats=self.frontend_stats,
        )
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
            return await self._send(
                writer, json_response(exc.status, wire.bad_request(str(exc))),
                keep_alive=False, log="-",
            )
        self._counters["requests"] += 1
        log = f"{head.method} {head.path}"
        if head.method not in ("GET", "POST"):
            return await self._send(
                writer, json_response(405, wire.method_not_allowed(head.method)),
                keep_alive=False, log=log,
            )
        if self.max_body is not None and head.length > self.max_body:
            # Refused by the declared size: the body is never read, so the
            # connection cannot continue.
            return await self._send(
                writer, json_response(413, wire.too_large(head.length, self.max_body)),
                keep_alive=False, log=log,
            )
        body = await self._read_body(head, reader, writer)
        result = self.app.handle(head.method, head.path, head.headers, body)
        if callable(result):
            self._counters["executed"] += 1
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(self._executor, result)
        else:
            self._counters["answered_on_loop"] += 1
        return await self._send(writer, result, keep_alive=head.keep_alive, log=log)

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

    async def _read_body(
        self,
        head: httphead.RequestHead,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bytes:
        if not head.length:
            return b""
        if head.expects_continue:
            writer.write(httphead.CONTINUE)
        try:
            async with asyncio.timeout(self._keepalive_timeout):
                return await reader.readexactly(head.length)
        except (asyncio.IncompleteReadError, TimeoutError):
            # Hung up early, or stalled without ever delivering the promised
            # bytes — either way the request is unrecoverable.
            self._counters["disconnects"] += 1
            raise _Hangup from None

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        *,
        keep_alive: bool,
        log: str,
    ) -> bool:
        """Write one response; returns ``keep_alive`` (whether to serve on)."""
        status, body, content_type, headers = response
        writer.write(
            httphead.response_head(
                status, content_type, len(body), keep_alive=keep_alive, extra=headers
            )
            + body
        )
        try:
            async with asyncio.timeout(self._keepalive_timeout):
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            # Mid-response disconnect (or a peer that stopped reading):
            # count it and end the connection quietly.
            self._counters["disconnects"] += 1
            raise _Hangup from None
        if not self.quiet:
            print(f'async "{log}" {status}', file=sys.stderr, flush=True)
        return keep_alive


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

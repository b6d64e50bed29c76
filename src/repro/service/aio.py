"""The asyncio HTTP/1.1 door of :class:`~repro.service.QueryService`: the default.

One event loop serves every connection (pure stdlib: an
:class:`asyncio.Protocol` per connection plus the shared HTTP/1.1 head codec
of :mod:`repro.service.httphead` — no new dependencies), so a cached
request costs no thread handoff.  ``repro serve`` runs this door unless the
config or ``--frontend threaded`` asks for the thread-per-connection door of
:mod:`repro.service.http`, which runs a cold query inline instead of paying
the executor hop below.  Every request is answered by the request core both
doors share (:class:`repro.service.app.App`), which owns the routes and the
protocol reference:

* **What the core answers at once is written at once.**  Cache hits, sure
  budget refusals, invalid requests, rate-limit refusals and every read
  surface are answered inside ``data_received`` as one ``transport.write``.
* **Deferred work leaves the loop.**  A cold query, a batch, a
  registration or an admin mutation comes back from the core as a callable,
  which runs in a small thread pool; its response is written on the loop
  when it is done.  Because both doors execute the identical core and
  service code and every query's randomness derives from ``(service seed,
  canonical key)``, answers are **bit-for-bit identical** across doors and
  worker counts.
* **Keep-alive and pipelining.**  Requests are framed off one buffer per
  connection and answered in order; while a deferred request runs, up to
  64 KiB of pipelined bytes are read ahead (so a hang-up is seen) and
  reading pauses beyond that.  Reading also pauses while the transport's
  write buffer is above its high-water mark, so a client that pipelines
  without reading its answers cannot grow the server's memory.
* **Hardening is the threaded door's.**  The same codec parses every
  request head (CRLF or bare-LF line endings), so a framing error gets the
  same v1 envelope and status on both (400, 505; a request line over
  64 KiB 414 and a header line over it or more than 100 headers 431, all
  decided on the read that breaks the limit, not at the blank line; a
  malformed or conflicting ``Content-Length`` 400; a method other than
  ``GET``/``POST`` 405), an oversized body → 413 (never read into memory, and answered
  instead of ``100 Continue``), any other body is read in full (invited
  with one ``100 Continue`` when expected and not yet sent) before the core
  answers, and a peer that disconnects mid-request or mid-response is
  counted, never a traceback in the log.
* **One timer per connection.**  Each connection keeps a deadline that
  every phase resets to ``keepalive_timeout`` from now: waiting for a
  request, reading its head, reading its body and waiting for a stalled
  client to read its answers, the last one of a closing connection too.
  An idle keep-alive connection closes quietly; a client that stalls
  mid-head, mid-body (slowloris) or without reading is reclaimed and
  counted.

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
import re
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, Optional, Set, Tuple

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

#: The blank line that ends a request head, after a CRLF or a bare-LF line.
_HEAD_END = re.compile(rb"\n\r?\n")
#: Pipelined bytes read ahead while a deferred request runs.
_READ_AHEAD = 1 << 16


class _Connection(asyncio.Protocol):
    """One HTTP/1.1 connection: requests framed off a buffer, answered in order."""

    def __init__(self, server: "AsyncServiceServer"):
        self._server = server
        self._loop = server._loop
        self._timeout = server._keepalive_timeout
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._scanned = 0  # where the search for the end of the head resumes
        self._head: Optional[httphead.RequestHead] = None  # its body is arriving
        self._busy = False  # a deferred request runs in the executor
        self._write_paused = False
        self._read_paused = False
        self._eof = False
        self._closing = False
        self._counted = False
        self._deadline = 0.0
        self._timer: Optional[asyncio.TimerHandle] = None
        self.closed = self._loop.create_future()

    # -- asyncio.Protocol --------------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self._server._connections.add(self)
        self._deadline = self._loop.time() + self._timeout
        self._timer = self._loop.call_at(self._deadline, self._expire)

    def data_received(self, data: bytes) -> None:
        if self._closing:
            return
        if not self._buffer and self._head is None and not self._busy:
            # The first bytes of a request: its head gets a full timeout.
            self._deadline = self._loop.time() + self._timeout
        self._buffer += data
        if self._busy:
            self._sync_reading()
        else:
            self._serve()

    def eof_received(self) -> bool:
        self._eof = True
        if self._busy:
            # Half-closed while a request runs: what it sent is still
            # answered (it can read), then the connection closes.
            return True
        self._end_input()
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if exc is not None:  # reset or broken pipe
            self._count_disconnect()
        self._closing = True
        self._transport = None
        if self._timer is not None:
            self._timer.cancel()
        self._server._connections.discard(self)
        if not self.closed.done():
            self.closed.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True
        self._deadline = self._loop.time() + self._timeout
        self._sync_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._deadline = self._loop.time() + self._timeout
        self._serve()

    # -- serving -----------------------------------------------------------
    def _serve(self, done: Optional[Tuple[Response, httphead.RequestHead]] = None) -> None:
        """Write a finished deferred answer, then answer every buffered request."""
        try:
            if done is not None:
                response, head = done
                self._respond(response, head.keep_alive, head)
            while not (self._busy or self._write_paused or self._closing):
                head = self._head
                if head is None:
                    head = self._frame()
                    if head is None:
                        break
                buffer = self._buffer
                if len(buffer) < head.length:
                    if self._head is None:  # the body has yet to arrive
                        self._head = head
                        self._deadline = self._loop.time() + self._timeout
                        if head.expects_continue:
                            self._transport.write(httphead.CONTINUE)
                    break
                self._head = None
                body = bytes(buffer[: head.length])
                del buffer[: head.length]
                self._answer(head, body)
            if self._eof and not (self._busy or self._closing):
                self._end_input()
            else:
                self._sync_reading()
        except Exception as exc:  # noqa: BLE001 - a connection must never leak a traceback
            if not self._server.quiet:
                print(
                    f"error on connection: {type(exc).__name__}: {exc}",
                    file=sys.stderr,
                    flush=True,
                )
            self._close()

    def _frame(self) -> Optional[httphead.RequestHead]:
        """Cut the next head off the buffer: ``None`` while incomplete or refused."""
        buffer = self._buffer
        if not buffer:
            return None
        if buffer[0] in b"\r\n":
            self._close()  # a blank line between requests: hang up
            return None
        end = _HEAD_END.search(buffer, self._scanned)
        if end is None:
            self._scanned = max(len(buffer) - 2, 0)
            self._check_partial_head()
            return None
        self._scanned = 0
        lines = buffer[: end.start()].split(b"\n")
        del buffer[: end.end()]
        counters = self._server._counters
        try:
            head = httphead.parse_head(httphead.parse_request_line(lines[0]), lines[1:])
        except httphead.HeadError as exc:
            counters["malformed"] += 1
            self._respond(json_response(exc.status, wire.bad_request(str(exc))), False)
            return None
        counters["requests"] += 1
        max_body = self._server.max_body
        if head.method not in ("GET", "POST"):
            self._respond(json_response(405, wire.method_not_allowed(head.method)), False, head)
        elif max_body is not None and head.length > max_body:
            # Refused by the declared size: the body is never read, so the
            # connection cannot continue.
            self._respond(json_response(413, wire.too_large(head.length, max_body)), False, head)
        else:
            return head
        return None

    def _check_partial_head(self) -> None:
        """Refuse an unfinished head as soon as it breaks a codec limit."""
        buffer = self._buffer
        if len(buffer) <= httphead.MAX_LINE and buffer.count(b"\n") <= httphead.MAX_HEADERS + 1:
            return
        lines = buffer.split(b"\n")
        if len(lines) > httphead.MAX_HEADERS + 2:
            error = (431, f"more than {httphead.MAX_HEADERS} header lines")
        elif len(lines[0]) > httphead.MAX_LINE:
            error = (414, "request line too long")
        elif max(map(len, lines)) > httphead.MAX_LINE:
            error = (431, "header line too long")
        else:
            return
        self._server._counters["malformed"] += 1
        self._respond(json_response(error[0], wire.bad_request(error[1])), False)

    def _answer(self, head: httphead.RequestHead, body: bytes) -> None:
        counters = self._server._counters
        result = self._server.app.handle(head.method, head.path, head.headers, body)
        if not callable(result):
            counters["answered_on_loop"] += 1
            self._respond(result, head.keep_alive, head)
            return
        counters["executed"] += 1
        self._busy = True
        future = self._server._executor.submit(result)
        self._server._deferred.add(future)
        future.add_done_callback(partial(self._hand_back, head))

    def _hand_back(self, head: httphead.RequestHead, future: Future) -> None:
        """On the executor thread: resume the connection on the loop."""
        try:
            self._loop.call_soon_threadsafe(self._finish, head, future)
        except RuntimeError:  # the loop is closed: the answer is dropped
            pass

    def _finish(self, head: httphead.RequestHead, future: Future) -> None:
        self._server._deferred.discard(future)
        self._busy = False
        if self._closing:
            return  # the peer is gone or the server stops: drop the answer
        try:
            response = future.result()
        except Exception as exc:  # noqa: BLE001 - App contains its own; this is the pool's
            response = json_response(500, wire.internal_error(exc))
        self._serve((response, head))

    def _respond(
        self,
        response: Response,
        keep_alive: bool,
        head: Optional[httphead.RequestHead] = None,
    ) -> None:
        status, body, content_type, headers = response
        self._transport.write(
            httphead.response_head(
                status, content_type, len(body), keep_alive=keep_alive, extra=headers
            )
            + body
        )
        if not self._server.quiet:
            log = "-" if head is None else f"{head.method} {head.path}"
            print(f'async "{log}" {status}', file=sys.stderr, flush=True)
        if keep_alive:
            self._deadline = self._loop.time() + self._timeout
        else:
            self._close()

    # -- flow control and teardown -----------------------------------------
    def _sync_reading(self) -> None:
        """Pause reading while writes back up or a deferred request reads ahead."""
        pause = self._write_paused or (self._busy and len(self._buffer) > _READ_AHEAD)
        if pause != self._read_paused and not self._closing:
            self._read_paused = pause
            if pause:
                self._transport.pause_reading()
            else:
                self._transport.resume_reading()

    def _expire(self) -> None:
        """The connection's one timer: end the phase that outlived its deadline."""
        now = self._loop.time()
        if self._busy or now < self._deadline:
            # Deferred work is the server's time, not the client's.
            when = self._deadline if now < self._deadline else now + self._timeout
            self._timer = self._loop.call_at(when, self._expire)
        elif self._closing or self._write_paused:
            # The peer stopped reading: a paused or closing transport would
            # wait for it to drain forever.
            self._count_disconnect()
            self._transport.abort()
        else:
            if self._buffer or self._head is not None:
                self._count_disconnect()  # stalled mid-request (slowloris)
            self._close()  # an idle keep-alive connection closes quietly
            self._timer = self._loop.call_at(self._deadline, self._expire)

    def _end_input(self) -> None:
        """The peer sent its last byte and all of it is answered: close."""
        if self._buffer or self._head is not None:
            self._count_disconnect()  # hung up mid-request
        self._close()

    def _count_disconnect(self) -> None:
        if not self._counted:
            self._counted = True
            self._server._counters["disconnects"] += 1

    def _close(self) -> None:
        self._closing = True
        self._deadline = self._loop.time() + self._timeout  # to drain what is written
        if self._transport is not None:
            self._transport.close()

    def shutdown(self) -> None:
        """Close for server stop; a peer that reads nothing is cut off."""
        if self._transport is None:
            return
        self._closing = True
        if self._write_paused:
            self._transport.abort()
        else:
            self._transport.close()


class AsyncServiceServer:
    """One event loop serving a :class:`QueryService` over HTTP/1.1.

    Parameters mirror :func:`repro.service.http.make_server` (including the
    ``limiter`` QoS gate and the ``admin`` control plane);
    ``executor_threads`` sizes the pool that runs the core's deferred work
    (cold queries, batches, registrations, admin mutations) off the loop,
    and ``keepalive_timeout`` bounds every phase of a connection — idle time
    between requests, head and body reads, and a client that does not read
    its answers — so a stalled client cannot pin its connection forever.
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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._bound: Optional[Tuple[str, int]] = None
        # Open connections and running deferred requests (event-loop thread only).
        self._connections: Set[_Connection] = set()
        self._deferred: Set[Future] = set()
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
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            partial(_Connection, self), self._host, self._port, backlog=512
        )
        self._bound = self._server.sockets[0].getsockname()[:2]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, close open connections, await them, then close.

        A request already executing finishes first (its answer is released
        and charged either way) and its response is dropped.
        """
        if self._server is not None:
            self._server.close()
            connections = list(self._connections)
            for connection in connections:
                connection.shutdown()
            await asyncio.gather(
                *(connection.closed for connection in connections),
                *(asyncio.wrap_future(future) for future in list(self._deferred)),
                return_exceptions=True,
            )
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

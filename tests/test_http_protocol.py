"""One HTTP/1.1 protocol matrix over all three front doors.

The threaded server, the asyncio server and the cluster router frame
requests with the same head codec (:mod:`repro.service.httphead`), so each
probe here runs against all three through one parametrised fixture and
expects the same bytes-level behaviour: framing refusals in the v1 JSON
envelope, keep-alive and close semantics, pipelining, case-insensitive
header names, ``Expect: 100-continue`` and conflicting ``Content-Length``.
Every probe speaks raw sockets, so no client-side parser softens what the
server sends.
"""

from __future__ import annotations

import http.client
import json
import socket
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.router import ShardEndpoint, make_router, serve_router
from repro.obs import TraceRecorder
from repro.service import AsyncServerThread, QueryService, make_server, serve_forever
from repro.service import LimitSpec, RateLimiter, RateLimits
from repro.service import httphead, wire

MAX_BODY = 4096
QUERY = json.dumps({"dataset": "d", "kind": "mean", "epsilon": 0.25}).encode()


def _service() -> QueryService:
    service = QueryService(seed=5, tracer=TraceRecorder(ring=64))
    service.register("d", np.random.default_rng(4).normal(10.0, 2.0, 2_000), 5.0)
    return service


def _threaded(service, **kwargs):
    server = make_server(service, quiet=True, max_body=MAX_BODY, **kwargs)
    thread = serve_forever(server)

    def stop():
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    return server.server_address[:2], stop


def _routed(shards):
    router = make_router(
        shards, quiet=True, max_body=MAX_BODY, tracer=TraceRecorder(ring=64)
    )
    thread = serve_router(router)

    def stop():
        router.shutdown()
        router.server_close()
        thread.join(timeout=5)

    return router.server_address[:2], stop


@pytest.fixture(params=["threaded", "async", "router"])
def door(request):
    """A running front door: ``address`` to dial, ``stop()`` when done."""
    if request.param == "threaded":
        address, stop = _threaded(_service())
    elif request.param == "async":
        runner = AsyncServerThread(_service(), quiet=True, max_body=MAX_BODY).start()
        address, stop = runner.server.server_address, runner.stop
    else:
        shard_address, stop_shard = _threaded(_service())
        address, stop_router = _routed([ShardEndpoint(0, *shard_address)])

        def stop():
            stop_router()
            stop_shard()

    yield SimpleNamespace(kind=request.param, address=address)
    stop()


def _read_response(reader):
    """``(status, lowercase headers, body)`` of one response, or ``None`` at EOF."""
    status_line = reader.readline()
    if not status_line:
        return None
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    return int(status_line.split()[1]), headers, reader.read(length)


def _exchange(address, data: bytes, count: int = 1, linger: float = 0.0):
    """Send ``data``, read ``count`` responses, then whether the server closed.

    A server that hangs up is seen at once; ``linger`` is how long an open
    connection is watched before it counts as kept alive.
    """
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        reader = sock.makefile("rb")
        responses = [_read_response(reader) for _ in range(count)]
        sock.settimeout(linger or 10)
        try:
            closed = reader.read(1) == b""
        except (socket.timeout, TimeoutError):
            closed = False
    return responses, closed


def _post(body: bytes = QUERY, *headers: str) -> bytes:
    lines = ["POST /query HTTP/1.1", "Host: x", *headers]
    if not any(h.lower().startswith("content-length") for h in headers):
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _assert_framing_refusal(responses, closed, status):
    ((code, headers, body),) = responses
    assert code == status
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    document = json.loads(body)
    assert document["api"] == 1
    assert document["error"]["code"] == "invalid_request"
    assert closed


class TestFramingRefusals:
    def test_garbage_request_line_is_400(self, door):
        _assert_framing_refusal(*_exchange(door.address, b"GARBAGE\r\n\r\n"), 400)

    def test_http2_is_505(self, door):
        data = b"GET /health HTTP/2.0\r\nHost: x\r\n\r\n"
        _assert_framing_refusal(*_exchange(door.address, data), 505)

    def test_too_many_headers_is_431(self, door):
        fields = b"".join(b"X-H%d: v\r\n" % i for i in range(httphead.MAX_HEADERS + 1))
        data = b"GET /health HTTP/1.1\r\n" + fields + b"\r\n"
        _assert_framing_refusal(*_exchange(door.address, data), 431)

    def test_64k_header_line_is_431(self, door):
        data = b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * httphead.MAX_LINE + b"\r\n\r\n"
        _assert_framing_refusal(*_exchange(door.address, data), 431)

    def test_obs_fold_continuation_line_is_400(self, door):
        data = b"GET /health HTTP/1.1\r\nX-A: one\r\n  two\r\n\r\n"
        _assert_framing_refusal(*_exchange(door.address, data), 400)

    def test_conflicting_content_length_is_400(self, door):
        data = _post(QUERY, f"Content-Length: {len(QUERY)}",
                     f"Content-Length: {len(QUERY) + 1}")
        responses, closed = _exchange(door.address, data)
        _assert_framing_refusal(responses, closed, 400)
        assert "Content-Length" in json.loads(responses[0][2])["error"]["message"]

    def test_repeated_equal_content_length_is_served(self, door):
        data = _post(QUERY, f"Content-Length: {len(QUERY)}",
                     f"Content-Length: {len(QUERY)}", "Connection: close")
        ((code, _, _),), _ = _exchange(door.address, data)
        assert code == 200


class TestConnections:
    def test_http10_without_keep_alive_closes(self, door):
        ((code, headers, _),), closed = _exchange(door.address, b"GET /health HTTP/1.0\r\n\r\n")
        assert code == 200 and headers["connection"] == "close" and closed

    def test_http10_keep_alive_stays_open(self, door):
        data = b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        ((code, headers, _),), closed = _exchange(door.address, data, linger=0.5)
        assert code == 200 and headers["connection"] == "keep-alive" and not closed

    def test_connection_close_on_http11_closes(self, door):
        data = b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        ((code, headers, _),), closed = _exchange(door.address, data)
        assert code == 200 and headers["connection"] == "close" and closed

    def test_two_pipelined_requests_answered_in_order(self, door):
        data = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n" + _post()
        responses, closed = _exchange(door.address, data, count=2, linger=0.5)
        assert [code for code, _, _ in responses] == [200, 200]
        assert json.loads(responses[0][2])["status"] == "ok"
        assert json.loads(responses[1][2])["kind"] == "mean"
        assert not closed

    def test_responses_carry_no_server_or_date_header(self, door):
        data = b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
        ((_, headers, _),), _ = _exchange(door.address, data)
        assert "server" not in headers and "date" not in headers


class TestRefusedPostBodies:
    """A POST refused by path never leaves its body to be read as a request."""

    @pytest.mark.parametrize(
        "path, status", [("/nope", 404), ("/datasets", 403), ("/admin/reload", 403)]
    )
    def test_pipelined_request_after_a_refused_post(self, door, path, status):
        refused = f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{{}}"
        data = refused.encode() + b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        responses, closed = _exchange(door.address, data, count=2, linger=0.5)
        assert responses[0][0] == status
        # Either the body was read and the next request answered, or the
        # server hung up; never the body parsed as a request line.
        assert responses[1] is None and closed or responses[1][0] == 200


@pytest.mark.parametrize("kind", ["threaded", "async"])
def test_rate_limited_answer_carries_retry_after(kind):
    """Both service doors send the same ``Retry-After`` with a 429."""
    limiter = RateLimiter(RateLimits(analyst=LimitSpec(rate=0.001, burst=1.0)))
    if kind == "threaded":
        address, stop = _threaded(_service(), limiter=limiter)
    else:
        runner = AsyncServerThread(
            _service(), quiet=True, max_body=MAX_BODY, limiter=limiter
        ).start()
        address, stop = runner.server.server_address, runner.stop
    try:
        responses, _ = _exchange(address, _post() + _post(), count=2)
    finally:
        stop()
    assert [code for code, _, _ in responses] == [200, 429]
    assert responses[1][1]["retry-after"] == "1000"


class TestHeaders:
    def test_mixed_case_names_are_honoured(self, door):
        data = _post(QUERY, f"cOnTeNt-LeNgTh: {len(QUERY)}",
                     "X-REPRO-TRACE-ID: matrix-case-1", "cOnNeCtIoN: CLOSE")
        ((code, _, body),), _ = _exchange(door.address, data)
        assert code == 200
        document = json.loads(body)
        assert document["status"] == "ok" and document["trace"] == "matrix-case-1"


class TestExpectContinue:
    def test_interim_100_before_the_body(self, door):
        head = _post(b"", "Expect: 100-continue", f"Content-Length: {len(QUERY)}")
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.sendall(head)
            reader = sock.makefile("rb")
            # The server must invite the body before it is sent.
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(QUERY)
            code, _, body = _read_response(reader)
        assert code == 200 and json.loads(body)["status"] == "ok"

    def test_oversized_declared_body_is_413_without_100(self, door):
        head = _post(b"", "Expect: 100-continue", f"Content-Length: {MAX_BODY + 1}")
        ((code, headers, body),), closed = _exchange(door.address, head)
        assert code == 413 and headers["connection"] == "close" and closed
        assert json.loads(body)["error"]["code"] == "payload_too_large"


class _InProcessShard(ShardEndpoint):
    """A shard endpoint that answers from a local service, never over HTTP."""

    def __init__(self, service: QueryService):
        super().__init__(0, "127.0.0.1", 9)
        self.service = service

    def request(self, method, path, body=None, headers=None):
        answer = self.service.submit(wire.parse_request(json.loads(body)))
        document = wire.answer_document(answer)
        return wire.answer_status_code(answer), json.dumps(document).encode()


@pytest.mark.parametrize("kind", ["threaded", "router"])
def test_email_header_parser_is_off_the_server_path(kind, monkeypatch):
    if kind == "threaded":
        address, stop = _threaded(_service())
    else:
        address, stop = _routed([_InProcessShard(_service())])

    def refuse(*args, **kwargs):
        raise AssertionError("http.client.parse_headers ran on the server path")

    monkeypatch.setattr(http.client, "parse_headers", refuse)
    try:
        ((code, _, body),), _ = _exchange(address, _post(QUERY, "Connection: close"))
    finally:
        stop()
    assert code == 200 and json.loads(body)["status"] == "ok"

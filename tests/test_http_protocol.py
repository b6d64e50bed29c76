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
import resource
import socket
import struct
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.router import ShardEndpoint, make_router, serve_router
from repro.obs import AuditLog, TraceRecorder
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


def _service_door(kind, service=None, **kwargs):
    """``(address, stop)`` of a running threaded or async service door."""
    service = service if service is not None else _service()
    if kind == "threaded":
        return _threaded(service, **kwargs)
    runner = AsyncServerThread(service, quiet=True, max_body=MAX_BODY, **kwargs).start()
    return runner.server.server_address, runner.stop


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


DOORS = ["threaded", "async", "router"]


def _open_door(kind, service):
    """``(address, stop)`` of a running door over ``service`` (the router's shard)."""
    if kind != "router":
        return _service_door(kind, service)
    shard_address, stop_shard = _threaded(service)
    address, stop_router = _routed([ShardEndpoint(0, *shard_address)])

    def stop():
        stop_router()
        stop_shard()

    return address, stop


@pytest.fixture(params=DOORS)
def door(request):
    """A running front door: ``address`` to dial, ``stop()`` when done."""
    address, stop = _open_door(request.param, _service())
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

    def test_64k_header_line_is_431_before_the_head_ends(self, door):
        """No door waits for the blank line to refuse an over-long line."""
        data = b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * httphead.MAX_LINE + b"\r\nX-After: v\r\n"
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
        if door.kind == "router":
            # The router may hang up rather than read a body it refuses;
            # never is the body parsed as a request line.
            assert responses[1] is None and closed or responses[1][0] == 200
        else:
            # The service doors read every body before the core answers.
            assert responses[1][0] == 200 and not closed


@pytest.mark.parametrize("kind", ["threaded", "async"])
def test_rate_limited_answer_carries_retry_after(kind):
    """Both service doors send the same ``Retry-After`` with a 429."""
    limiter = RateLimiter(RateLimits(analyst=LimitSpec(rate=0.001, burst=1.0)))
    address, stop = _service_door(kind, limiter=limiter)
    try:
        responses, _ = _exchange(address, _post() + _post(), count=2)
    finally:
        stop()
    assert [code for code, _, _ in responses] == [200, 429]
    assert responses[1][1]["retry-after"] == "1000"


class TestServiceDoorsAgree:
    """The threaded and async doors answer through one request core."""

    @pytest.fixture(params=["threaded", "async"])
    def service_door(self, request):
        address, stop = _service_door(request.param)
        yield address
        stop()

    @pytest.mark.parametrize("body", [b"", b"{not json"])
    def test_unreadable_query_echoes_its_trace_id(self, service_door, body):
        data = _post(body, "X-Repro-Trace-Id: unreadable-1", f"Content-Length: {len(body)}")
        ((code, _, payload),), closed = _exchange(service_door, data, linger=0.5)
        document = json.loads(payload)
        assert code == 400 and not closed
        assert document["error"]["code"] == "invalid_request"
        assert document["trace"] == "unreadable-1"

    def test_oversized_body_to_an_unknown_path_is_413(self, service_door):
        data = f"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: {MAX_BODY + 1}\r\n\r\n"
        ((code, headers, body),), closed = _exchange(service_door, data.encode())
        assert code == 413 and headers["connection"] == "close" and closed
        assert json.loads(body)["error"]["code"] == "payload_too_large"

    def test_traced_query_has_the_same_spans_on_both_doors(self, service_door):
        data = _post(QUERY, "X-Repro-Trace-Id: spans-1", "Connection: close")
        ((code, _, _),), _ = _exchange(service_door, data)
        assert code == 200
        probe = b"GET /debug/traces/spans-1 HTTP/1.1\r\nConnection: close\r\n\r\n"
        ((code, _, body),), _ = _exchange(service_door, probe)
        spans = [span["name"] for span in json.loads(body)["trace"]["spans"]]
        assert spans[:3] == ["parse", "rate_check", "admission_probe"]
        assert "read_body" not in spans


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


class TestFraming:
    """Requests framed however their bytes are cut into segments."""

    def test_head_and_body_one_byte_per_send(self, door):
        data = _post(QUERY, "Connection: close")
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for offset in range(len(data)):
                sock.sendall(data[offset:offset + 1])
                time.sleep(0.001)
            code, _, body = _read_response(sock.makefile("rb"))
        assert code == 200 and json.loads(body)["status"] == "ok"

    def test_pipelined_pair_with_the_second_body_split(self, door):
        second = _post(QUERY, "X-Repro-Trace-Id: split-2")
        cut = len(second) - len(QUERY) // 2
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(_post(QUERY) + second[:cut])
            time.sleep(0.2)
            sock.sendall(second[cut:])
            reader = sock.makefile("rb")
            responses = [_read_response(reader) for _ in range(2)]
        assert [code for code, _, _ in responses] == [200, 200]
        first, repeat = (json.loads(body) for _, _, body in responses)
        assert repeat["cached"] and repeat["value"] == first["value"]
        assert repeat["trace"] == "split-2"

    def test_pipelined_pair_then_half_close_answers_both(self, door):
        """A client that sends a cold query and a second request, then shuts
        its write side, still reads both answers before the close."""
        health = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.sendall(_post() + health)
            sock.shutdown(socket.SHUT_WR)
            reader = sock.makefile("rb")
            responses = [_read_response(reader) for _ in range(2)]
            assert reader.read(1) == b""
        assert [code for code, _, _ in responses] == [200, 200]
        assert json.loads(responses[0][2])["status"] == "ok"

    def test_body_sent_only_after_100_continue(self, door):
        head = _post(b"", "Expect: 100-continue", f"Content-Length: {len(QUERY)}")
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(head)
            reader = sock.makefile("rb")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(QUERY[:7])
            time.sleep(0.2)
            # One interim response per request, however the body arrives;
            # the next request expects nothing and gets none.
            sock.sendall(QUERY[7:] + b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            (code, _, body), (health, _, _) = (_read_response(reader) for _ in range(2))
        assert code == 200 and json.loads(body)["status"] == "ok"
        assert health == 200


def _frontend_counter(address, name: str) -> int:
    probe = b"GET /datasets HTTP/1.1\r\nConnection: close\r\n\r\n"
    ((_, _, body),), _ = _exchange(address, probe)
    return json.loads(body)["frontend"][name]


def _audited(path, event: str) -> int:
    lines = path.read_text().splitlines()
    return sum(json.loads(line)["event"] == event for line in lines)


@pytest.mark.parametrize("kind", DOORS)
def test_hang_up_during_a_deferred_cold_query(kind, tmp_path, monkeypatch):
    """The query commits and is audited once, the hang-up is counted, and
    another connection is answered while the query runs."""
    started, release = threading.Event(), threading.Event()
    submit = QueryService.submit

    def held(self, request, **kwargs):
        started.set()
        release.wait(10)
        return submit(self, request, **kwargs)

    monkeypatch.setattr(QueryService, "submit", held)
    service = QueryService(seed=5, audit=AuditLog(tmp_path / "audit.jsonl"))
    service.register("d", np.random.default_rng(4).normal(10.0, 2.0, 2_000), 5.0)
    address, stop = _open_door(kind, service)
    try:
        sock = socket.create_connection(address, timeout=10)
        sock.sendall(_post())
        assert started.wait(10)
        # Hang up abortively: the reset reaches the server at once.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        ((code, _, _),), _ = _exchange(address, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert code == 200 and not release.is_set()
        release.set()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not (
            _frontend_counter(address, "disconnects") >= 1
            and len(service.registry.get("d").budget.ledger) == 1
        ):
            time.sleep(0.05)
        assert _frontend_counter(address, "disconnects") == 1
        assert len(service.registry.get("d").budget.ledger) == 1
        assert _audited(tmp_path / "audit.jsonl", "commit") == 1
    finally:
        release.set()
        stop()
        service.audit.close()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_pipelining_client_that_never_reads_is_bounded(door):
    """The door stops reading once its answers back up: a client that
    pipelines without reading stalls, and server memory stays flat."""
    request = b"GET /kinds HTTP/1.1\r\nHost: x\r\nX-Pad: " + b"p" * 1000 + b"\r\n\r\n"
    chunk = request * 16  # each answer is the ~6 KB catalogue
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
    sock.connect(door.address)
    sock.setblocking(False)
    baseline = _peak_rss_mb()
    progressed = time.monotonic()
    deadline = progressed + 10
    try:
        while time.monotonic() < deadline:
            try:
                sock.send(chunk)
                progressed = time.monotonic()
            except BlockingIOError:
                if time.monotonic() - progressed > 1.0:
                    break  # the door stopped reading for good
                time.sleep(0.01)
            assert _peak_rss_mb() - baseline < 64, "the door buffers unread answers"
        else:
            pytest.fail("the door kept reading requests whose answers go unread")
        # Everyone else is still served.
        ((code, _, _),), _ = _exchange(door.address, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert code == 200
    finally:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()


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

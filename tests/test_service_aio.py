"""Tests for the asyncio front-end, plus HTTP protocol edges on BOTH front-ends.

The protocol-edge tests (malformed ``Content-Length``, oversized bodies,
pipelined keep-alive requests, mid-request disconnects) run against the
threaded and the async server through one parametrised fixture: the two
front-ends promise identical observable behaviour, so they get identical
tests.  The parity test then checks the strongest form of that promise —
bit-for-bit identical answers for the same service seed and query stream.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.coordinator import BudgetCoordinator
from repro.cluster.rpc import CoordinatorClient
from repro.service import (
    AsyncServerThread,
    QueryRequest,
    QueryService,
    Query,
    RemoteBudgetManager,
    make_server,
    serve_forever,
    wire,
)

MAX_BODY = 64_000


def _make_service(seed: int = 13, budget: float = 5.0) -> QueryService:
    service = QueryService(seed=seed)
    service.register("d", np.random.default_rng(1).normal(50.0, 5.0, 10_000), budget)
    return service


@pytest.fixture(params=["threaded", "async"])
def frontend(request):
    """One running server of each flavour, with a uniform handle."""
    service = _make_service()
    if request.param == "threaded":
        server = make_server(
            service, port=0, allow_register=True, quiet=True, max_body=MAX_BODY
        )
        thread = serve_forever(server)
        yield SimpleNamespace(
            kind="threaded",
            url=server.url,
            address=server.server_address[:2],
            service=service,
            disconnects=lambda: server.disconnects,
        )
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    else:
        runner = AsyncServerThread(
            service, port=0, allow_register=True, quiet=True, max_body=MAX_BODY
        ).start()
        yield SimpleNamespace(
            kind="async",
            url=runner.url,
            address=runner.server.server_address,
            service=service,
            disconnects=lambda: runner.server.disconnects,
        )
        runner.stop()


def _call(url: str, path: str, payload=None, method=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def _read_responses(sock: socket.socket, count: int):
    """Read ``count`` HTTP responses off one (possibly keep-alive) socket."""
    reader = sock.makefile("rb")
    responses = []
    for _ in range(count):
        status_line = reader.readline()
        if not status_line:
            break
        headers = {}
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        body = reader.read(length) if length else b""
        responses.append((int(status_line.split()[1]), headers, body))
    return responses


class TestRoutesBothFrontends:
    def test_health_and_query_lifecycle(self, frontend):
        status, doc = _call(frontend.url, "/health")
        assert status == 200 and doc["datasets"] == ["d"]

        status, doc = _call(
            frontend.url, "/query", {"dataset": "d", "kind": "mean", "epsilon": 0.5}
        )
        assert status == 200 and doc["status"] == "ok"
        assert doc["value"] == pytest.approx(50.0, abs=3.0)

        status, repeat = _call(
            frontend.url, "/query", {"dataset": "d", "kind": "mean", "epsilon": 0.5}
        )
        assert repeat["cached"] is True
        assert repeat["value"] == doc["value"]
        assert repeat["epsilon_charged"] == 0.0

        status, refused = _call(
            frontend.url, "/query", {"dataset": "d", "kind": "mean", "epsilon": 50.0}
        )
        assert status == 403 and refused["error"]["code"] == "budget_exceeded"

        status, unknown = _call(
            frontend.url, "/query", {"dataset": "ghost", "kind": "mean", "epsilon": 0.5}
        )
        assert status == 404 and unknown["error"]["code"] == "unknown_dataset"

    def test_batch_coalesces_duplicates(self, frontend):
        payload = {
            "queries": [
                {"dataset": "d", "kind": "iqr", "epsilon": 0.4},
                {"dataset": "d", "kind": "iqr", "epsilon": 0.4},
            ]
        }
        status, doc = _call(frontend.url, "/query", payload)
        assert status == 200
        answers = doc["answers"]
        assert [a["status"] for a in answers] == ["ok", "ok"]
        assert answers[1]["coalesced"] is True
        assert answers[1]["value"] == answers[0]["value"]

    def test_registration_roundtrip(self, frontend):
        status, doc = _call(
            frontend.url, "/datasets",
            {"name": "fresh", "values": list(np.linspace(0.0, 99.0, 200)),
             "budget": 2.0},
        )
        assert status == 201 and doc["dataset"]["records"] == 200
        status, doc = _call(
            frontend.url, "/query", {"dataset": "fresh", "kind": "mean", "epsilon": 0.5}
        )
        assert status == 200 and doc["status"] == "ok"

    def test_datasets_reports_frontend_stats(self, frontend):
        _call(frontend.url, "/query", {"dataset": "d", "kind": "mean", "epsilon": 0.1})
        status, doc = _call(frontend.url, "/datasets")
        assert status == 200
        assert doc["frontend"]["frontend"] == frontend.kind
        assert doc["frontend"]["max_body"] == MAX_BODY
        assert "disconnects" in doc["frontend"]

    def test_kinds_catalogue_served(self, frontend):
        from repro.estimators import registered_kinds

        status, doc = _call(frontend.url, "/kinds")
        assert status == 200
        assert sorted(doc["kinds"]) == registered_kinds()
        assert doc["kinds"]["mean"]["min_records"] == 8

    def test_unknown_kind_400_lists_registered_kinds(self, frontend):
        from repro.estimators import registered_kinds

        status, doc = _call(
            frontend.url, "/query", {"dataset": "d", "kind": "mode", "epsilon": 0.5}
        )
        assert status == 400
        assert doc["error"]["code"] == "unknown_kind"
        assert doc["error"]["detail"]["kinds"] == registered_kinds()
        # the legacy top-level alias is gone
        assert "kinds" not in doc

    def test_baseline_kind_roundtrip(self, frontend):
        status, doc = _call(
            frontend.url, "/query",
            {"dataset": "d", "kind": "baseline.dwork_lei_iqr", "epsilon": 0.5},
        )
        # A rejected PTR stability check is a valid (budgeted) outcome.
        assert status == 200 and doc["status"] in ("ok", "failed")
        assert doc["epsilon_charged"] == pytest.approx(0.5)


class TestProtocolEdges:
    def test_garbage_content_length_is_400(self, frontend):
        with socket.create_connection(frontend.address, timeout=5) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n"
            )
            (code, _, body), = _read_responses(sock, 1)
        assert code == 400
        assert b"Content-Length" in body
        assert b"Traceback" not in body

    def test_negative_content_length_is_400(self, frontend):
        with socket.create_connection(frontend.address, timeout=5) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n"
            )
            (code, _, _), = _read_responses(sock, 1)
        assert code == 400

    def test_oversized_body_is_413_without_reading_it(self, frontend):
        declared = MAX_BODY * 16
        with socket.create_connection(frontend.address, timeout=5) as sock:
            sock.sendall(
                f"POST /query HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {declared}\r\n\r\n".encode()
            )
            # The 413 must arrive although the body was never sent: the
            # server refuses by the declared size instead of buffering it.
            (code, _, body), = _read_responses(sock, 1)
        assert code == 413
        doc = json.loads(body)
        assert doc["error"]["code"] == "payload_too_large"

    def test_empty_body_is_400(self, frontend):
        status, doc = _call(frontend.url, "/query", method="POST")
        assert status == 400
        assert "empty" in doc["error"]["message"]

    def test_invalid_json_is_400(self, frontend):
        with socket.create_connection(frontend.address, timeout=5) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 9\r\n\r\n{not json"
            )
            (code, _, _), = _read_responses(sock, 1)
        assert code == 400

    def test_pipelined_keepalive_requests_answered_in_order(self, frontend):
        query = json.dumps({"dataset": "d", "kind": "mean", "epsilon": 0.25}).encode()
        post = (
            f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(query)}\r\n\r\n".encode() + query
        )
        health = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(frontend.address, timeout=10) as sock:
            sock.sendall(health + post + post + health)
            responses = _read_responses(sock, 4)
        assert [code for code, _, _ in responses] == [200, 200, 200, 200]
        first = json.loads(responses[1][2])
        second = json.loads(responses[2][2])
        assert json.loads(responses[0][2])["status"] == "ok"
        assert first["status"] == "ok"
        # The pipelined repeat of the identical query is the cached answer.
        assert second["cached"] is True and second["value"] == first["value"]

    def test_mid_request_disconnect_is_counted_not_crashed(self, frontend):
        before = frontend.disconnects()
        sock = socket.create_connection(frontend.address, timeout=5)
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n{\"par"
        )
        sock.close()  # hang up long before the promised 500 bytes
        deadline = time.time() + 5.0
        while time.time() < deadline and frontend.disconnects() <= before:
            time.sleep(0.05)
        assert frontend.disconnects() > before
        # The server survived and still answers.
        status, doc = _call(frontend.url, "/health")
        assert status == 200 and doc["status"] == "ok"


class TestAsyncStalledClients:
    def test_stalled_header_client_is_reclaimed(self):
        """A slowloris-style client (headers never finish) must not pin its
        connection task: the keep-alive timeout reclaims and counts it."""
        service = _make_service()
        with AsyncServerThread(
            service, port=0, quiet=True, keepalive_timeout=0.5
        ) as runner:
            address = runner.server.server_address
            sock = socket.create_connection(address, timeout=5)
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: x\r\n")  # ...and stall
            deadline = time.time() + 5.0
            while time.time() < deadline and runner.server.disconnects < 1:
                time.sleep(0.05)
            assert runner.server.disconnects >= 1
            # The server dropped the stalled connection...
            assert sock.recv(4096) == b""
            sock.close()
            # ...and keeps serving everyone else.
            status, doc = _call(runner.url, "/health")
            assert status == 200 and doc["status"] == "ok"

    def test_unread_closing_answer_is_cut_off(self):
        """A ``Connection: close`` answer the client never reads does not
        hold its connection open: the keep-alive timeout aborts and counts it."""
        service = _make_service()
        for index in range(1000):  # a GET /datasets answer of ~340 KB
            service.register(f"pad{index}", np.arange(100.0), 5.0)
        with AsyncServerThread(
            service, port=0, quiet=True, keepalive_timeout=0.5
        ) as runner:
            # Accepted sockets inherit a small send buffer (no autotuning),
            # so most of the answer waits in the transport, not the kernel.
            listener = runner.server._server.sockets[0]
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(runner.server.server_address)
            sock.sendall(b"GET /datasets HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            deadline = time.time() + 5.0
            while time.time() < deadline and runner.server.disconnects < 1:
                time.sleep(0.05)
            assert runner.server.disconnects == 1
            # The rest of the answer was dropped, not kept for a late reader.
            sock.settimeout(5)
            received = b""
            try:
                while chunk := sock.recv(65536):
                    received += chunk
            except ConnectionResetError:
                pass
            sock.close()
            length = int(received.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            assert len(received) < length
            status, doc = _call(runner.url, "/health")
            assert status == 200 and doc["status"] == "ok"


_OPEN_CONNECTION_AT_STOP = textwrap.dedent(
    """
    import socket

    import numpy as np

    from repro.service import AsyncServerThread, QueryService

    service = QueryService(seed=1)
    service.register("d", np.arange(100.0), 5.0)
    runner = AsyncServerThread(service, port=0, quiet=True).start()
    sock = socket.create_connection(runner.server.server_address, timeout=5)
    sock.sendall(b"GET /health HTTP/1.1\\r\\nHost: x\\r\\n\\r\\n")
    assert sock.recv(65536).startswith(b"HTTP/1.1 200")
    runner.stop()  # the keep-alive connection is still open
    assert sock.recv(4096) == b""  # ...and the server closed it
    sock.close()
    print("stopped")
    """
)


class TestAsyncShutdown:
    def test_stop_with_open_keepalive_connection_is_clean(self):
        """Stopping the server cancels and awaits its open connections: no
        "Task was destroyed but it is pending!", no "Event loop is closed"."""
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", _OPEN_CONNECTION_AT_STOP],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "stopped"
        assert completed.stderr == ""


class TestFrontendParity:
    def test_both_frontends_answer_bit_for_bit_identically(self):
        """Same seed + same query stream → byte-identical values and statuses."""
        stream = [
            {"dataset": "d", "kind": "mean", "epsilon": 0.4},
            {"dataset": "d", "kind": "variance", "epsilon": 0.3},
            {"dataset": "d", "kind": "quantile", "epsilon": 0.3,
             "params": {"levels": [0.5, 0.9]}},
            {"dataset": "d", "kind": "mean", "epsilon": 0.4},  # cache hit
            {"dataset": "d", "kind": "iqr", "epsilon": 0.5},
            {"dataset": "d", "kind": "mean", "epsilon": 50.0},  # refusal
            {"dataset": "d", "kind": "iqr", "epsilon": 0.5},  # cache hit
        ]

        def drive(url):
            outcomes = []
            for query in stream:
                status, doc = _call(url, "/query", query)
                outcomes.append(
                    (status, doc["status"], doc.get("value"), doc.get("cached"))
                )
            return outcomes

        threaded_service = _make_service()
        server = make_server(threaded_service, port=0, quiet=True)
        thread = serve_forever(server)
        try:
            threaded_outcomes = drive(server.url)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

        async_service = _make_service()
        with AsyncServerThread(async_service, port=0, quiet=True) as runner:
            async_outcomes = drive(runner.url)

        assert threaded_outcomes == async_outcomes


class TestPeekFastPath:
    """QueryService.peek is the async loop's fast path: exact, zero side effects."""

    def test_peek_misses_then_hits_after_release(self):
        service = _make_service()
        request = QueryRequest("d", Query("mean", 0.5))
        assert service.peek(request) is None  # cold: needs an estimator run
        released = service.submit(request)
        peeked = service.peek(request)
        assert peeked is not None and peeked.cached
        assert peeked.value == released.value
        assert peeked.epsilon_charged == 0.0

    def test_peek_refuses_over_budget_without_touching_ledger(self):
        service = _make_service(budget=1.0)
        manager = service.registry.get("d").budget
        spends_before = len(manager.ledger)
        answer = service.peek(QueryRequest("d", Query("mean", 50.0)))
        assert answer is not None and answer.status == "refused"
        assert answer.error == "budget_exceeded"
        assert len(manager.ledger) == spends_before
        assert manager.reserved == 0.0

    def test_peek_defers_to_inflight_coalescing_over_refusal(self):
        """An identical in-flight query must coalesce, never peek-refuse.

        With the whole budget held by an in-flight identical query, a
        point-in-time budget probe would refuse — but submit would coalesce
        at zero marginal epsilon.  peek must return None (dispatch to
        submit) so both front-ends answer identically.
        """
        from repro.service.executor import _InFlight

        service = _make_service(budget=1.0)
        request = QueryRequest("d", Query("mean", 1.0))
        key = request.query.canonical_key("d")
        reservation = service.registry.get("d").budget.reserve(1.0)
        try:
            with service._coalesce_lock:
                service._inflight[key] = _InFlight()
            assert service.peek(request) is None  # would refuse if probed
            with service._coalesce_lock:
                service._inflight.pop(key, None)
            # Without the in-flight twin the same state is a sure refusal.
            assert service.peek(request).status == "refused"
        finally:
            with service._coalesce_lock:
                service._inflight.pop(key, None)
            service.registry.get("d").budget.cancel(reservation)

    def test_peek_keeps_cache_counters_exact(self):
        """One request = one counted lookup, across the peek + submit split."""
        service = _make_service()
        request = QueryRequest("d", Query("mean", 0.5))
        assert service.peek(request) is None  # probe: must not count a miss
        service.submit(request)  # counts the one real miss
        stats = service.cache.stats
        assert (stats.hits, stats.misses) == (0, 1)
        answer = service.peek(request)  # loop-served hit: counts exactly one
        assert answer.cached
        stats = service.cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        # A probe-answered refusal counts the same one miss the submission
        # path would — identical streams give identical counters.
        refused = service.peek(QueryRequest("d", Query("mean", 50.0)))
        assert refused.status == "refused"
        assert (service.cache.stats.hits, service.cache.stats.misses) == (1, 2)

    def test_refusal_miss_counting_matches_submit_path(self):
        """The same refused stream leaves identical cache counters either way."""
        peek_service = _make_service()
        submit_service = _make_service()
        request = QueryRequest("d", Query("mean", 50.0))
        assert peek_service.peek(request).status == "refused"
        assert submit_service.submit(request).status == "refused"
        assert peek_service.cache.stats == submit_service.cache.stats

    def test_peek_never_probes_a_remote_ledger(self):
        """A coordinator-owned budget is not probed under the admission lock.

        ``peek`` makes no RPC and defers to ``submit``, whose ``reserve``
        refuses; so the async front door's answer to a refused group query
        is exactly ``submit``'s.
        """

        class CountingClient:
            def __init__(self):
                self.coordinator = BudgetCoordinator()
                self.calls = []

            def call(self, op, **fields):
                self.calls.append(op)
                response = self.coordinator.handle({"id": 1, "op": op, **fields})
                return CoordinatorClient._unwrap(op, response)

        def grouped_service():
            client = CountingClient()
            service = QueryService(seed=13)
            manager = RemoteBudgetManager("group:g", client, capacity=1.0)
            service.registry.create_group("g", 1.0, manager=manager)
            service.register(
                "d", np.random.default_rng(1).normal(50.0, 5.0, 10_000), None, group="g"
            )
            return service, client

        query = {"dataset": "d", "kind": "mean", "epsilon": 5.0}
        service, client = grouped_service()
        before = len(client.calls)
        assert service.peek(QueryRequest("d", Query("mean", 5.0))) is None
        assert client.calls[before:] == []

        twin, _ = grouped_service()
        expected = wire.answer_document(twin.submit(QueryRequest("d", Query("mean", 5.0))))
        assert expected["error"]["code"] == "budget_exceeded"
        with AsyncServerThread(service, port=0, quiet=True) as runner:
            status, document = _call(runner.url, "/query", query)
        assert status == 403
        assert document == json.loads(json.dumps(expected))
        assert "peek" not in client.calls

    def test_peek_reports_invalid_requests(self):
        service = _make_service()
        answer = service.peek(QueryRequest("ghost", Query("mean", 0.5)))
        assert answer is not None and answer.error == "unknown_dataset"
        answer = service.peek(QueryRequest("d", Query("multivariate_mean", 0.5)))
        assert answer is not None and answer.status == "invalid"

"""The routing tier against a real in-process shard fleet.

Two shard HTTP servers (each a full :class:`QueryService` under the same
seed), one coordinator owning the joint group ledger, one router in front
— the same topology ``repro compose`` boots as processes, collapsed into
threads so the whole suite stays fast.  The assertions are the cluster's
external contract: bit-for-bit parity with a single-process service,
joint-budget atomicity across shards, honest 503s for dead shards, and
cluster-level aggregation documents.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.client import ServiceClient
from repro.cluster.coordinator import make_coordinator_server, serve_in_thread
from repro.cluster.router import (
    ShardEndpoint,
    ShardUnavailable,
    make_router,
    serve_router,
)
from repro.cluster.rpc import CoordinatorClient
from repro.service import QueryService, RemoteBudgetManager
from repro.service.http import make_server, serve_forever

SEED = 411
GROUP_BUDGET = 30.0
PRIVATE_BUDGET = 5.0


def _datasets():
    rng = np.random.default_rng(9)
    return {
        "salaries": rng.normal(52_000.0, 9_000.0, 4_000),
        "heights": rng.normal(170.0, 8.0, 4_000),
        "private": rng.normal(0.0, 1.0, 4_000),
    }


def _populate(service, manager=None):
    """Register the fixture datasets the way every shard's config would."""
    if manager is not None:
        service.registry.create_group("clinical", GROUP_BUDGET, manager=manager)
    else:
        service.registry.create_group("clinical", GROUP_BUDGET)
    data = _datasets()
    service.register("salaries", data["salaries"], None, group="clinical")
    service.register("heights", data["heights"], None, group="clinical")
    service.register("private", data["private"], PRIVATE_BUDGET)


@pytest.fixture(scope="module")
def cluster():
    coordinator = make_coordinator_server()
    coordinator_thread = serve_in_thread(coordinator)
    host, port = coordinator.server_address[:2]

    shards, servers, clients = [], [], []
    for index in range(2):
        service = QueryService(seed=SEED)
        client = CoordinatorClient(host, port)
        clients.append(client)
        _populate(
            service,
            RemoteBudgetManager(
                "group:clinical", client, capacity=GROUP_BUDGET
            ),
        )
        server = make_server(service, quiet=True)
        serve_forever(server)
        servers.append(server)
        shards.append(
            ShardEndpoint(index, *server.server_address[:2])
        )

    router = make_router(shards, pinned=("private",), quiet=True)
    serve_router(router)

    yield router

    router.shutdown()
    router.server_close()
    for server in servers:
        server.shutdown()
        server.server_close()
    for client in clients:
        client.close()
    coordinator.shutdown()
    coordinator.server_close()
    coordinator_thread.join(timeout=5)


@pytest.fixture(scope="module")
def via_router(cluster):
    host, port = cluster.server_address[:2]
    return ServiceClient(f"http://{host}:{port}")


@pytest.fixture(scope="module")
def reference():
    service = QueryService(seed=SEED)
    _populate(service)
    return service


STREAM = [
    ("salaries", "mean", 0.5),
    ("salaries", "variance", 0.4),
    ("heights", "mean", 0.5),
    ("heights", "iqr", 0.6),
    ("private", "mean", 0.3),
    ("private", "variance", 0.3),
]


class TestParity:
    def test_single_queries_bit_for_bit(self, via_router, reference):
        for dataset, kind, epsilon in STREAM:
            status, doc = via_router.query(dataset, kind, epsilon=epsilon)
            expected = reference.query(dataset, kind, epsilon=epsilon)
            assert status == 200, doc
            assert doc["value"] == expected.value
            assert doc["epsilon_charged"] == expected.epsilon_charged
            assert doc["key"] == expected.key

    def test_batch_fans_out_and_reassembles_in_order(self, via_router, reference):
        queries = [
            {"dataset": dataset, "kind": kind, "epsilon": epsilon}
            for dataset, kind, epsilon in STREAM
        ]
        status, doc = via_router.query_batch(queries)
        assert status == 200
        assert [a["dataset"] for a in doc["answers"]] == [q[0] for q in STREAM]
        for answer, (dataset, kind, epsilon) in zip(doc["answers"], STREAM):
            expected = reference.query(dataset, kind, epsilon=epsilon)
            assert answer["value"] == expected.value, (dataset, kind)

    def test_repeat_is_a_cache_hit_on_the_owning_shard(self, via_router):
        first = via_router.query("salaries", "mean", epsilon=0.5)[1]
        again = via_router.query("salaries", "mean", epsilon=0.5)[1]
        assert again["cached"] is True
        assert again["value"] == first["value"]
        assert again["epsilon_charged"] == 0.0


class TestJointBudgetAcrossShards:
    def test_exhaustion_refuses_on_every_member_everywhere(self, via_router, cluster):
        # burn the group ledger down through whichever shards own the keys
        status, doc = via_router.query("salaries", "mean", epsilon=25.0)
        if status == 200:
            status, doc = via_router.query("heights", "variance", epsilon=25.0)
        assert status == 403
        assert doc["error"]["code"] == "budget_exceeded"
        # now every member refuses on every kind — i.e. on every shard —
        # because there is exactly one ledger, in the coordinator
        for dataset in ("salaries", "heights"):
            for kind in ("mean", "variance", "iqr"):
                status, doc = via_router.query(dataset, kind, epsilon=20.0)
                assert (status, doc["error"]["code"]) == (403, "budget_exceeded"), (
                    dataset, kind
                )

    def test_private_dataset_unaffected_by_group_exhaustion(self, via_router):
        status, doc = via_router.query("private", "iqr", epsilon=0.4)
        assert status == 200 and doc["status"] == "ok"


class TestAggregation:
    def test_health_reports_fleet_totals(self, via_router):
        doc = via_router.health()
        assert doc["status"] == "ok"
        assert doc["shards"] == {"total": 2, "healthy": 2, "unreachable": []}
        assert set(doc["datasets"]) == {"salaries", "heights", "private"}

    def test_datasets_document_keeps_single_process_shape(self, via_router):
        doc = via_router.stats()
        names = {entry["name"] for entry in doc["datasets"]}
        assert names == {"salaries", "heights", "private"}
        assert "clinical" in doc["groups"]
        assert doc["cache"]["hits"] >= 1  # the repeat-query test above
        assert doc["cluster"]["shards"][0]["shard"] == 0
        assert doc["cluster"]["shards"][0]["healthy"] is True
        assert doc["cluster"]["pinned"] == ["private"]

    def test_metrics_exposition(self, via_router):
        text = via_router.metrics()
        assert "repro_router_requests_total" in text
        assert 'repro_router_shard_up{shard="0"} 1' in text
        assert "repro_cache_hits_total" in text

    def test_kinds_proxied(self, via_router):
        assert "mean" in via_router.kinds()["kinds"]

    def test_unknown_dataset_404_through_owning_shard(self, via_router):
        status, doc = via_router.query("nope", "mean", epsilon=0.5)
        assert status == 404
        assert doc["error"]["code"] == "unknown_dataset"

    def test_registration_is_disabled_at_the_router(self, via_router):
        status, doc = via_router.register("new", [1.0, 2.0, 3.0], 1.0)
        assert status == 403
        assert doc["error"]["code"] == "registration_disabled"


class TestDeadShard:
    def test_dead_shard_is_an_honest_503_not_a_silent_retry(self, cluster, via_router):
        victim = cluster.shards[1]
        victim.close()
        original_request = victim.request

        def refuse(*args, **kwargs):
            raise ShardUnavailable("connection refused (test)")

        victim.request = refuse
        try:
            owned = [
                (dataset, kind)
                for dataset, kind, _ in STREAM
                if cluster.owner(dataset, kind) == 1
            ]
            assert owned, "shard 1 owns nothing in STREAM — fixture too small"
            dataset, kind = owned[0]
            status, doc = via_router.query(dataset, kind, epsilon=0.1)
            assert status == 503
            assert doc["error"]["code"] == "shard_unavailable"
            assert doc["error"]["detail"]["shard"] == 1

            # a batch spanning both shards: dead entries fail, live succeed
            live = [
                (d, k) for d, k, _ in STREAM if cluster.owner(d, k) == 0
            ]
            assert live, "shard 0 owns nothing in STREAM — fixture too small"
            status, doc = via_router.query_batch(
                [
                    {"dataset": dataset, "kind": kind, "epsilon": 0.1},
                    {"dataset": live[0][0], "kind": live[0][1], "epsilon": 0.1},
                ]
            )
            assert status == 200
            dead_entry, live_entry = doc["answers"]
            assert dead_entry["status"] == "failed"
            assert dead_entry["error"]["code"] == "shard_unavailable"
            assert live_entry["status"] in ("ok", "refused")

            health = via_router.health()
            assert health["status"] == "degraded"
            assert health["shards"]["unreachable"] == [1]
        finally:
            victim.request = original_request


class _RawShard:
    """A raw-socket shard that counts the requests it reads.

    ``mode="stall"`` answers the first request, then reads every later one
    and never answers it (a slow cold query, as the router sees it).
    ``mode="close"`` answers every request and then hangs up, so the
    router's pooled connection is stale by its next use.
    """

    RESPONSE = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 2\r\n\r\n{}"
    )

    def __init__(self, mode: str):
        self.mode = mode
        self.requests = 0
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self) -> None:
        while not self._done.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            threading.Thread(
                target=self._serve, args=(connection,), daemon=True
            ).start()

    def _serve(self, connection: socket.socket) -> None:
        with connection:
            buffer = b""
            while not self._done.is_set():
                while b"\r\n\r\n" not in buffer:
                    chunk = connection.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                head, _, buffer = buffer.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                while len(buffer) < length:
                    buffer += connection.recv(65536)
                buffer = buffer[length:]
                with self._lock:
                    self.requests += 1
                    first = self.requests == 1
                if self.mode == "stall" and not first:
                    self._done.wait()
                    return
                connection.sendall(self.RESPONSE)
                if self.mode == "close":
                    return

    def close(self) -> None:
        self._done.set()
        self._thread.join(timeout=5)
        self._listener.close()


class TestShardRetry:
    def test_read_timeout_is_not_replayed(self):
        shard = _RawShard("stall")
        endpoint = ShardEndpoint(0, "127.0.0.1", shard.port, timeout=0.5)
        try:
            assert endpoint.request("POST", "/query", b"{}") == (200, b"{}")
            # The pooled connection is healthy; the shard just never
            # answers.  It already has the request, so retrying it on a
            # fresh connection could execute (and spend) it twice.
            with pytest.raises(ShardUnavailable, match="timed out"):
                endpoint.request("POST", "/query", b"{}")
            assert shard.requests == 2
        finally:
            endpoint.close()
            shard.close()

    def test_stale_pooled_connection_is_retried_once(self):
        shard = _RawShard("close")
        endpoint = ShardEndpoint(0, "127.0.0.1", shard.port, timeout=5.0)
        try:
            assert endpoint.request("GET", "/health") == (200, b"{}")
            # The shard hung up the idle connection: the retry on a fresh
            # one is the only request the shard reads.
            assert endpoint.request("GET", "/health") == (200, b"{}")
            assert shard.requests == 2
        finally:
            endpoint.close()
            shard.close()


class TestFraming:
    def test_invalid_json_is_a_router_400(self, cluster):
        host, port = cluster.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/query", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        doc = json.loads(excinfo.value.read())
        assert doc["error"]["code"] == "invalid_request"

    def test_unknown_path_is_404(self, via_router):
        status, doc = via_router.call("/wat")
        assert status == 404
        assert doc["error"]["code"] == "unknown_path"

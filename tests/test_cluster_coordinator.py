"""Budget coordinator: RPC core, TCP server, client, and the remote proxy.

The load-bearing property: the coordinator's reserve→commit is exactly the
local :class:`BudgetManager` protocol executed under one lock, so joint
admission stays atomic when many shard processes hammer one ledger — the
exhaustion test at the bottom drives that concurrently through real
sockets and asserts the ledger never over- or under-counts.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster.coordinator import (
    BudgetCoordinator,
    make_coordinator_server,
    serve_in_thread,
)
from repro.cluster.rpc import CoordinatorClient, decode_line, encode_line
from repro.exceptions import (
    BudgetExceededError,
    CoordinatorUnavailableError,
    DomainError,
)
from repro.service import Query, QueryRequest, QueryService
from repro.service.registry import BudgetManager, RemoteBudgetManager


@pytest.fixture
def server():
    server = make_coordinator_server()
    thread = serve_in_thread(server)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def client_for(server, **kwargs):
    host, port = server.server_address[:2]
    return CoordinatorClient(host, port, **kwargs)


class TestFraming:
    def test_round_trip(self):
        line = encode_line({"id": 1, "op": "ping"})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"id": 1, "op": "ping"}

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            decode_line(b"[1, 2]\n")


class TestCoordinatorCore:
    """Dict-in/dict-out, no sockets: the op semantics in isolation."""

    def test_unknown_op_is_an_error_response_not_a_crash(self):
        response = BudgetCoordinator().handle({"id": 3, "op": "explode"})
        assert response["ok"] is False and response["id"] == 3
        assert "unknown op" in response["message"]

    def test_create_is_idempotent_but_conflicts_are_refused(self):
        coordinator = BudgetCoordinator()
        first = coordinator.handle(
            {"id": 1, "op": "create", "owner": "group:g", "capacity": 5.0}
        )
        again = coordinator.handle(
            {"id": 2, "op": "create", "owner": "group:g", "capacity": 5.0}
        )
        assert first["created"] is True and again["created"] is False
        conflict = coordinator.handle(
            {"id": 3, "op": "create", "owner": "group:g", "capacity": 9.0}
        )
        assert conflict["ok"] is False
        assert "conflicting" in conflict["message"]

    def test_reserve_commit_updates_ledger(self):
        coordinator = BudgetCoordinator()
        coordinator.handle(
            {"id": 1, "op": "create", "owner": "group:g", "capacity": 5.0}
        )
        reserved = coordinator.handle(
            {"id": 2, "op": "reserve", "owner": "group:g", "amount": 2.0}
        )
        assert reserved["ok"] is True
        settled = coordinator.handle(
            {"id": 3, "op": "commit", "token": reserved["token"],
             "actual": 1.5, "label": "q"}
        )
        assert settled["charged"] == 1.5
        snapshot = coordinator.handle(
            {"id": 4, "op": "snapshot", "owner": "group:g"}
        )["budget"]
        assert snapshot["spent"] == 1.5 and snapshot["reserved"] == 0.0

    def test_refusal_leaves_ledger_untouched(self):
        coordinator = BudgetCoordinator()
        coordinator.handle(
            {"id": 1, "op": "create", "owner": "group:g", "capacity": 1.0}
        )
        refused = coordinator.handle(
            {"id": 2, "op": "reserve", "owner": "group:g", "amount": 5.0}
        )
        assert refused["ok"] is False and refused["error"] == "budget_exceeded"
        snapshot = coordinator.handle(
            {"id": 3, "op": "snapshot", "owner": "group:g"}
        )["budget"]
        assert snapshot["spent"] == 0.0 and snapshot["reserved"] == 0.0

    def test_settling_a_token_twice_is_refused(self):
        coordinator = BudgetCoordinator()
        coordinator.handle(
            {"id": 1, "op": "create", "owner": "group:g", "capacity": 5.0}
        )
        token = coordinator.handle(
            {"id": 2, "op": "reserve", "owner": "group:g", "amount": 1.0}
        )["token"]
        coordinator.handle({"id": 3, "op": "cancel", "token": token})
        again = coordinator.handle({"id": 4, "op": "commit", "token": token,
                                    "actual": 1.0, "label": "x"})
        assert again["ok"] is False and "unknown reservation token" in again["message"]


class TestClientOverSockets:
    def test_ping(self, server):
        client = client_for(server)
        try:
            assert client.ping() is True
        finally:
            client.close()

    def test_budget_exceeded_maps_to_the_local_exception(self, server):
        client = client_for(server)
        try:
            client.call("create", owner="group:g", capacity=1.0)
            with pytest.raises(BudgetExceededError):
                client.call("reserve", owner="group:g", amount=2.0)
        finally:
            client.close()

    def test_domain_errors_map_to_domain_error(self, server):
        client = client_for(server)
        try:
            with pytest.raises(DomainError):
                client.call("snapshot", owner="group:never-created")
        finally:
            client.close()

    def test_unreachable_coordinator_raises_unavailable(self):
        client = CoordinatorClient("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(CoordinatorUnavailableError):
            client.ping()

    def test_stale_keepalive_socket_is_reconnected_for_idempotent_ops(self, server):
        client = client_for(server)
        try:
            assert client.ping() is True
            # kill the server side of the keep-alive socket; the next
            # idempotent call must silently reconnect
            client._sock.close()
            assert client.ping() is True
        finally:
            client.close()


class TestRemoteBudgetManagerParity:
    """The proxy must be behaviourally indistinguishable from a local manager."""

    def test_protocol_parity_with_local_manager(self, server):
        client = client_for(server)
        local = BudgetManager(10.0, analyst_budgets={"alice": 3.0})
        remote = RemoteBudgetManager(
            "group:parity", client, capacity=10.0,
            analyst_budgets={"alice": 3.0},
        )
        try:
            for manager in (local, remote):
                reservation = manager.reserve(2.0, analyst="alice")
                assert manager.commit(reservation, 1.25, label="q1") == (1.25, 8.75)
                cancelled = manager.reserve(4.0)
                manager.cancel(cancelled)
                with pytest.raises(BudgetExceededError):
                    manager.reserve(2.5, analyst="alice")  # alice cap: 3.0
            assert remote.spent == local.spent == 1.25
            assert remote.remaining == local.remaining
            assert remote.reserved == local.reserved == 0.0
            assert remote.analyst_remaining("alice") == local.analyst_remaining(
                "alice"
            )
        finally:
            client.close()

    def test_two_clients_share_one_ledger(self, server):
        first, second = client_for(server), client_for(server)
        try:
            a = RemoteBudgetManager("group:shared", first, capacity=3.0)
            b = RemoteBudgetManager("group:shared", second, capacity=3.0)
            a.commit(a.reserve(2.0), 2.0, label="from-a")
            # shard B sees A's spend instantly: one ledger, not two
            assert b.spent == 2.0
            with pytest.raises(BudgetExceededError):
                b.reserve(2.0)
        finally:
            first.close()
            second.close()

    def test_conflicting_mount_is_refused(self, server):
        client = client_for(server)
        try:
            RemoteBudgetManager("group:cfg", client, capacity=5.0)
            with pytest.raises(DomainError):
                RemoteBudgetManager("group:cfg", client, capacity=7.0)
        finally:
            client.close()

    def test_rotate_analyst_budgets(self, server):
        client = client_for(server)
        try:
            manager = RemoteBudgetManager("group:rot", client, capacity=5.0)
            manager.rotate_analyst_budgets({"bob": 1.0})
            assert manager.analyst_remaining("bob") == 1.0
            with pytest.raises(BudgetExceededError):
                manager.reserve(1.5, analyst="bob")
        finally:
            client.close()


class TestConcurrentExhaustion:
    def test_exactly_capacity_commits_under_concurrent_hammer(self, server):
        """Many threads × several clients racing one ledger of capacity 10.

        Exactly 10 unit reservations may ever be admitted; every other
        attempt must refuse with the ledger untouched.  This is the
        cluster-wide atomicity claim of the coordinator in miniature.
        """
        capacity, workers, attempts_each = 10, 8, 5
        clients = [client_for(server) for _ in range(4)]
        managers = [
            RemoteBudgetManager("group:hammer", client, capacity=float(capacity))
            for client in clients
        ]
        committed, refused = [], []
        record_lock = threading.Lock()
        start = threading.Barrier(workers)

        def hammer(worker):
            manager = managers[worker % len(managers)]
            start.wait()
            for attempt in range(attempts_each):
                try:
                    reservation = manager.reserve(1.0)
                except BudgetExceededError:
                    with record_lock:
                        refused.append((worker, attempt))
                    continue
                charged, _ = manager.commit(
                    reservation, 1.0, label=f"w{worker}a{attempt}"
                )
                with record_lock:
                    committed.append(charged)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        try:
            assert len(committed) == capacity
            assert len(refused) == workers * attempts_each - capacity
            snapshot = managers[0].to_json()
            assert snapshot["spent"] == float(capacity)
            assert snapshot["reserved"] == 0.0
            assert snapshot["remaining"] == 0.0
        finally:
            for client in clients:
                client.close()


class TestColdQueryRoundTrips:
    """A cold query on a coordinator-owned budget costs reserve + commit only."""

    class CountingClient:
        def __init__(self):
            self.coordinator = BudgetCoordinator()
            self.calls = []

        def call(self, op, **fields):
            self.calls.append(op)
            response = self.coordinator.handle({"id": 1, "op": op, **fields})
            return CoordinatorClient._unwrap(op, response)

    def test_cold_query_makes_exactly_reserve_and_commit(self):
        client = self.CountingClient()
        service = QueryService(seed=13)
        manager = RemoteBudgetManager("group:g", client, capacity=2.0)
        service.registry.create_group("g", 2.0, manager=manager)
        service.register(
            "d", np.random.default_rng(1).normal(50.0, 5.0, 10_000), None, group="g"
        )
        before = len(client.calls)
        answer = service.submit(QueryRequest("d", Query("mean", 0.5)))
        assert answer.status == "ok"
        assert client.calls[before:] == ["reserve", "commit"]
        # The answer's remaining is its own commit's, from the commit reply.
        assert answer.remaining == 2.0 - answer.epsilon_charged
        assert manager.remaining == answer.remaining

    def test_cache_hits_and_refusals_make_no_snapshot_call(self):
        """Answers report the coordinator's last ``remaining``: no extra RPC.

        A cache hit (``submit`` or ``peek``) and a refusal each report the
        value of the last reply that carried one, so none of them blocks on
        a ``snapshot`` round trip (on the asyncio door, the event loop).
        """
        client = self.CountingClient()
        service = QueryService(seed=13)
        manager = RemoteBudgetManager("group:g", client, capacity=2.0)
        service.registry.create_group("g", 2.0, manager=manager)
        service.register(
            "d", np.random.default_rng(1).normal(50.0, 5.0, 10_000), None, group="g"
        )
        request = QueryRequest("d", Query("mean", 0.5))
        released = service.submit(request)
        before = len(client.calls)
        hit = service.submit(request)
        peeked = service.peek(request)
        refused = service.submit(QueryRequest("d", Query("mean", 5.0)))
        assert client.calls[before:] == ["reserve"]  # the refused claim only
        assert hit.cached and peeked.cached and refused.status == "refused"
        assert hit.remaining == peeked.remaining == released.remaining
        assert refused.remaining == released.remaining
        # Stats and GET /datasets keep the live snapshot.
        assert manager.remaining == released.remaining
        assert client.calls[-1] == "snapshot"

    def test_refusal_reports_the_remaining_of_its_refused_reserve(self):
        """Spend through another shard is in a refusal's ``remaining``."""
        client = self.CountingClient()
        data = np.random.default_rng(1).normal(50.0, 5.0, 10_000)
        shards = []
        for seed in (1, 2):
            service = QueryService(seed=seed)
            manager = RemoteBudgetManager("group:g", client, capacity=2.0)
            service.registry.create_group("g", 2.0, manager=manager)
            service.register("d", data, None, group="g")
            shards.append((service, manager))
        (first, first_manager), (second, _) = shards
        first.submit(QueryRequest("d", Query("mean", 0.5)))
        spent_elsewhere = second.submit(QueryRequest("d", Query("mean", 1.4)))
        before = len(client.calls)
        refused = first.submit(QueryRequest("d", Query("iqr", 0.5)))
        assert client.calls[before:] == ["reserve"]
        assert refused.status == "refused"
        assert refused.remaining == spent_elsewhere.remaining < 0.5
        assert first_manager.reported_remaining == refused.remaining

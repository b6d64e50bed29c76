"""Every HTTP front door serves its accepted sockets with Nagle off.

A response whose headers and body leave as two writes waits out the
client's delayed ACK (about 40 ms) when Nagle is on.  Rather than assert a
latency floor, which would be timing-dependent, these tests read
``TCP_NODELAY`` off the accepted socket itself: the threaded front-end and
the router through their handler's ``setup``, the async front-end through
``_handle_connection``.
"""

from __future__ import annotations

import socket
import urllib.request

import numpy as np
import pytest

from repro.cluster import router as router_module
from repro.cluster.router import ShardEndpoint, make_router, serve_router
from repro.service import QueryService
from repro.service import aio as aio_module
from repro.service import http as http_module
from repro.service.aio import AsyncServerThread
from repro.service.http import make_server, serve_forever


def _nodelay(sock: socket.socket) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def _get(url: str) -> int:
    with urllib.request.urlopen(url + "/health", timeout=10) as response:
        response.read()
        return response.status


def _service() -> QueryService:
    service = QueryService(seed=3)
    service.register("d", np.random.default_rng(2).normal(0.0, 1.0, 1_000), 5.0)
    return service


@pytest.fixture
def seen_by_handler(monkeypatch):
    """Record ``TCP_NODELAY`` of each accepted socket, per handler class."""
    seen = []

    def watch(handler_class):
        original = handler_class.setup

        def setup(self):
            original(self)
            seen.append((handler_class.__name__, _nodelay(self.connection)))

        monkeypatch.setattr(handler_class, "setup", setup)

    watch(http_module._Handler)
    watch(router_module._RouterHandler)
    return seen


def _threaded_shard():
    server = make_server(_service(), quiet=True)
    thread = serve_forever(server)
    return server, thread


def test_threaded_front_end_accepts_with_nodelay(seen_by_handler):
    server, thread = _threaded_shard()
    try:
        assert _get(server.url) == 200
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert seen_by_handler == [("_Handler", True)]


def test_router_accepts_with_nodelay(seen_by_handler):
    shard, shard_thread = _threaded_shard()
    router = make_router([ShardEndpoint(0, *shard.server_address[:2])], quiet=True)
    router_thread = serve_router(router)
    host, port = router.server_address[:2]
    try:
        assert _get(f"http://{host}:{port}") == 200
    finally:
        router.shutdown()
        router.server_close()
        router_thread.join(timeout=5)
        shard.shutdown()
        shard.server_close()
        shard_thread.join(timeout=5)
    assert ("_RouterHandler", True) in seen_by_handler
    assert all(nodelay for _, nodelay in seen_by_handler)


def test_async_front_end_accepts_with_nodelay(monkeypatch):
    seen = []
    original = aio_module.AsyncServiceServer._handle_connection

    async def handle(self, reader, writer):
        seen.append(_nodelay(writer.get_extra_info("socket")))
        await original(self, reader, writer)

    monkeypatch.setattr(aio_module.AsyncServiceServer, "_handle_connection", handle)
    with AsyncServerThread(_service(), quiet=True) as runner:
        assert _get(runner.url) == 200
    assert seen == [True]

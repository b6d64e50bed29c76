"""Consistent-hashing HTTP router: the front door of a sharded serving tier.

One stdlib :class:`~http.server.ThreadingHTTPServer` that owns **no budget
and no data** — it speaks the exact v1 wire protocol of a single
:mod:`repro.service.http` process and forwards every query to the shard
replica that owns its route key:

* **Group-member datasets** hash on ``(dataset, kind)`` — their joint
  budget lives in the coordinator, so *any* replica answers identically and
  spreading kinds across shards maximises cache locality per shard.
* **Private-budget datasets** are *pinned*: they hash on the dataset name
  alone, so exactly one shard sees all their spend and their local ledger
  stays authoritative with zero coordinator round-trips.

Because every shard boots from the same config and seed, answers are
**bit-for-bit identical** wherever a query lands — routing is a cache- and
ledger-locality decision, never a correctness one.  That same determinism
makes forwarding retries safe: a query replayed after a stale keep-alive
connection either hits the shard's answer cache or coalesces with the
in-flight execution, so it can never double-spend.

Routing is deterministic, so a dead shard is answered honestly with a 503
``shard_unavailable`` document (batch entries get an answer-shaped refusal
via :func:`repro.service.wire.shard_unavailable_answer`) rather than being
silently retried on a replica that does not own the key's cache or ledger.

Cluster-level read surfaces aggregate the shard fleet:

``GET /health``
    ``status`` is ``"ok"`` only when every shard answers; ``datasets`` is
    the union; ``shards`` counts total/healthy.
``GET /datasets``
    The single-process stats shape (``datasets`` / ``groups`` / ``cache`` /
    ``spend``), assembled so existing clients — including ``repro audit
    spend --url`` — keep working: pinned datasets come from their owning
    shard, group budgets from any live shard (they are coordinator-owned
    and therefore consistent), cache counters are summed, and per-shard
    detail lands under a new ``cluster`` key.
``GET /metrics``
    Prometheus text: router counters plus per-shard ``up`` gauges and the
    summed cache counters.
``GET /kinds``
    Proxied from the first live shard (the catalogue is identical
    everywhere by construction).
``GET /debug/traces``
    The router's *own* trace ring.  A traced ``POST /query`` propagates its
    trace id to the owning shard via ``X-Repro-Trace-Id``, so one id can be
    looked up on the router (parse/route/forward/serialize spans) *and* on
    the shard (admission/execution spans) — a single trace spanning the
    tier.

Run it with ``python -m repro.cluster.router --plan router.json`` (written
by ``repro compose``); the plan carries the bind address, the shard
endpoints and the pinned-dataset list.
"""

from __future__ import annotations

import http.client
import json
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.ring import HashRing, route_key
from repro.exceptions import ReproError
from repro.obs import span as obs_span
from repro.service import wire
from repro.service.http import (
    DEFAULT_MAX_BODY,
    ClientDisconnect,
    HeadHandler,
    PayloadTooLarge,
)
from repro.service.metrics import PROMETHEUS_CONTENT_TYPE
from repro.service.queries import InvalidQueryError

__all__ = [
    "ShardEndpoint",
    "ShardUnavailable",
    "RouterServer",
    "make_router",
    "serve_router",
    "main",
]

#: Transport-level failures talking to a shard (connection refused, reset,
#: truncated response).  Routing is deterministic, so these surface as 503
#: ``shard_unavailable`` rather than a retry on a non-owning replica.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

#: The errors a pooled keep-alive connection the shard has already closed
#: raises before any response: the shard never read the request, so it is
#: the one failure a retry cannot turn into a second execution.
_STALE_ERRORS = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)

#: Idle keep-alive connections retained per shard; beyond this they close.
_POOL_SIZE = 32


class ShardUnavailable(Exception):
    """The owning shard could not be reached (after one fresh-connection retry)."""


class ShardEndpoint:
    """One shard replica: its address plus a keep-alive connection pool.

    Connections are pooled per shard and reused across router handler
    threads.  A pooled connection the shard has closed in the meantime
    fails with a disconnect, reset or broken pipe; only that failure is
    retried, once, on a fresh connection.  Any other error — a read
    timeout above all — may mean the shard already has the request, and a
    ``failed`` outcome commits spend without being cached, so a replay
    could spend twice: it surfaces as :class:`ShardUnavailable` instead.
    """

    def __init__(self, index: int, host: str, port: int, *, timeout: float = 30.0):
        self.index = int(index)
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _acquire(self) -> Tuple[http.client.HTTPConnection, bool]:
        """A pooled connection (reused=True) or a fresh one (reused=False)."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout), False

    def _release(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < _POOL_SIZE:
                self._idle.append(connection)
                return
        connection.close()

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """One forwarded request; returns ``(status, body_bytes)``.

        Retries exactly once on a fresh connection when the first attempt
        used a pooled connection the shard had already closed; raises
        :class:`ShardUnavailable` on any other transport error.
        """
        send_headers = {"Connection": "keep-alive", **(headers or {})}
        connection, reused = self._acquire()
        for attempt in (0, 1):
            try:
                connection.request(method, path, body=body, headers=send_headers)
                response = connection.getresponse()
                payload = response.read()
                self._release(connection)
                return response.status, payload
            except _TRANSPORT_ERRORS as exc:
                connection.close()
                if attempt == 0 and reused and isinstance(exc, _STALE_ERRORS):
                    connection = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout
                    )
                    continue
                raise ShardUnavailable(f"{type(exc).__name__}: {exc}") from exc
        raise AssertionError("unreachable")  # pragma: no cover

    def request_json(
        self,
        method: str,
        path: str,
        document: Optional[Any] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        body = None
        send_headers = dict(headers or {})
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        status, payload = self.request(method, path, body, send_headers)
        try:
            return status, json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShardUnavailable(
                f"shard returned a non-JSON body for {method} {path}: {exc}"
            ) from exc

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


def _sum_counters(documents: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Key-wise sum of numeric counters (cache stats across shards)."""
    total: Dict[str, Any] = {}
    for document in documents:
        for key, value in document.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            total[key] = total.get(key, 0) + value
    if documents and "hits" in total and "misses" in total:
        lookups = total["hits"] + total["misses"]
        total["hit_rate"] = (total["hits"] / lookups) if lookups else 0.0
    return total


class _RouterHandler(HeadHandler):
    """Routes by key, forwards verbatim, aggregates the read surfaces."""

    server: "RouterServer"

    # -- GET: aggregated read surfaces --------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self.server.count("requests")
        try:
            if self.path == "/health":
                self._send_json(*self.server.health_document())
            elif self.path == "/datasets":
                self._send_json(*self.server.stats_document())
            elif self.path == "/kinds":
                self._send_json(*self.server.proxy_first_live("GET", "/kinds"))
            elif self.path == "/metrics":
                self._send_body(
                    200,
                    self.server.metrics_text().encode("utf-8"),
                    PROMETHEUS_CONTENT_TYPE,
                )
            elif self.path == "/debug/traces" or self.path.startswith("/debug/traces/"):
                self._handle_traces()
            else:
                self._send_json(404, wire.unknown_path("GET", self.path))
        except _TRANSPORT_ERRORS:
            self.server.count("disconnects")
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - must never leak a traceback
            self._send_json(500, wire.internal_error(exc))

    def _handle_traces(self) -> None:
        tracer = self.server.tracer
        if tracer is None:
            self._send_json(404, wire.tracing_disabled())
            return
        if self.path == "/debug/traces":
            self._send_json(200, wire.traces_document(tracer))
            return
        code, doc = wire.trace_document(tracer, self.path[len("/debug/traces/"):])
        self._send_json(code, doc)

    # -- POST: query forwarding ---------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self.server.count("requests")
        try:
            if self.path == "/query":
                self._handle_query()
            elif self.path == "/datasets":
                self._refuse_unread(403, wire.registration_disabled())
            elif self.path.startswith("/admin"):
                self._refuse_unread(
                    403,
                    wire.error_document(
                        "admin_disabled",
                        "the router exposes no admin plane; "
                        "address a shard's /admin surface directly",
                    ),
                )
            else:
                self._refuse_unread(404, wire.unknown_path("POST", self.path))
        except ClientDisconnect:
            self.server.count_disconnect()
            self.close_connection = True
        except PayloadTooLarge:
            self._send_json(413, wire.too_large(self.head.length, self.server.max_body))
        except ReproError as exc:
            self._send_json(400, wire.invalid_request(exc))
        except _TRANSPORT_ERRORS:
            self.server.count("disconnects")
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - must never leak a traceback
            self._send_json(500, wire.internal_error(exc))

    def _handle_query(self) -> None:
        """Route one ``POST /query`` (single or batch) under a router trace.

        The payload is *peeked* for routing only — ``dataset`` and ``kind``
        pick the owning shard — and the client's envelope is forwarded
        verbatim, so the shard performs all validation and the router can
        never drift from the wire contract.  Requests missing either field
        still forward (to a deterministic shard) so the client receives the
        shard's authoritative 400.
        """
        tracer = self.server.tracer
        trace = None
        if tracer is not None:
            trace = tracer.start(
                self.head.headers.get("x-repro-trace-id"), frontend="router"
            )
        trace_id = trace.trace_id if trace is not None else None
        # Propagate the router's trace id (or the client's, untraced) so the
        # shard's trace ring holds the same id: one trace spans the tier.
        forward_id = trace_id or self.head.headers.get("x-repro-trace-id")
        headers = {"X-Repro-Trace-Id": forward_id} if forward_id else {}
        try:
            with obs_span(trace, "parse"):
                payload = self._read_json()
            if isinstance(payload, dict) and "queries" in payload:
                status, document = self._forward_batch(payload, headers, trace)
            else:
                status, document = self._forward_single(payload, headers, trace)
        finally:
            if tracer is not None and trace is not None:
                tracer.finish(trace)
        self._send_json(status, wire.with_trace(document, trace_id))

    def _route(self, entry: Any) -> int:
        """The owning shard index for one query object (deterministic)."""
        dataset = kind = ""
        if isinstance(entry, dict):
            dataset = str(entry.get("dataset") or "")
            kind = str(entry.get("kind") or "")
        return self.server.owner(dataset, kind)

    def _forward_single(
        self, payload: Any, headers: Dict[str, str], trace
    ) -> Tuple[int, Dict[str, Any]]:
        with obs_span(trace, "route") as info:
            shard = self.server.shards[self._route(payload)]
            info["shard"] = shard.index
        if trace is not None and isinstance(payload, dict):
            trace.annotate(
                dataset=payload.get("dataset"), kind=payload.get("kind"),
                shard=shard.index,
            )
        try:
            with obs_span(trace, "forward", shard=shard.index):
                status, document = shard.request_json(
                    "POST", "/query", payload, headers
                )
            self.server.count("forwarded")
        except ShardUnavailable as exc:
            self.server.count("shard_errors")
            if trace is not None:
                trace.annotate(status="shard_unavailable")
            return 503, wire.shard_unavailable(shard.index, str(exc))
        return status, document

    def _forward_batch(
        self, payload: Dict[str, Any], headers: Dict[str, str], trace
    ) -> Tuple[int, Dict[str, Any]]:
        entries = payload.get("queries")
        if not isinstance(entries, list):
            raise InvalidQueryError("'queries' must be a list of query objects")
        with obs_span(trace, "route", queries=len(entries)) as info:
            partitions: Dict[int, List[int]] = {}
            for index, entry in enumerate(entries):
                partitions.setdefault(self._route(entry), []).append(index)
            info["shards"] = sorted(partitions)
        if trace is not None:
            trace.annotate(queries=len(entries), shards=len(partitions))
        docs: List[Optional[Dict[str, Any]]] = [None] * len(entries)

        def forward(shard_index: int, positions: List[int]) -> None:
            shard = self.server.shards[shard_index]
            sub = {"queries": [entries[position] for position in positions]}
            try:
                status, document = shard.request_json("POST", "/query", sub, headers)
                answers = document.get("answers") if isinstance(document, dict) else None
                if status != 200 or not isinstance(answers, list):
                    raise ShardUnavailable(
                        f"batch forward answered {status}, not a batch document"
                    )
                self.server.count("forwarded")
                for position, answer in zip(positions, answers):
                    docs[position] = answer
            except ShardUnavailable as exc:
                self.server.count("shard_errors")
                for position in positions:
                    entry = entries[position]
                    dataset = kind = None
                    if isinstance(entry, dict):
                        dataset, kind = entry.get("dataset"), entry.get("kind")
                    docs[position] = wire.shard_unavailable_answer(
                        dataset, kind, shard_index, str(exc)
                    )

        with obs_span(trace, "forward", shards=len(partitions)):
            if len(partitions) == 1:
                ((shard_index, positions),) = partitions.items()
                forward(shard_index, positions)
            else:
                futures = [
                    self.server.fanout.submit(forward, shard_index, positions)
                    for shard_index, positions in partitions.items()
                ]
                for future in futures:
                    future.result()
        with obs_span(trace, "serialize"):
            document = wire.answers_document(docs)
        return 200, document


class RouterServer(ThreadingHTTPServer):
    """The routing tier: a ring over shard endpoints plus aggregation state."""

    daemon_threads = True
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        shards: List[ShardEndpoint],
        *,
        pinned: Any = (),
        tracer: Any = None,
        quiet: bool = False,
        max_body: Optional[int] = DEFAULT_MAX_BODY,
    ):
        if not shards:
            raise ValueError("a router needs at least one shard endpoint")
        super().__init__(address, _RouterHandler)
        self.shards = {shard.index: shard for shard in shards}
        self.ring = HashRing(self.shards)
        self.pinned = frozenset(str(name) for name in pinned)
        self.tracer = tracer
        self.quiet = quiet
        self.max_body = max_body
        self.fanout = ThreadPoolExecutor(
            max_workers=max(8, 4 * len(shards)), thread_name_prefix="repro-router"
        )
        self._stats_lock = threading.Lock()
        self._counters = {
            "requests": 0, "forwarded": 0, "shard_errors": 0, "disconnects": 0,
        }

    # -- routing -------------------------------------------------------------
    def owner(self, dataset: str, kind: str) -> int:
        """The shard index owning ``(dataset, kind)`` under the ring."""
        return self.ring.owner(route_key(dataset, kind, pinned=self.pinned))

    # -- counters ------------------------------------------------------------
    def count(self, key: str) -> None:
        with self._stats_lock:
            self._counters[key] += 1

    def count_disconnect(self) -> None:
        self.count("disconnects")

    def counters(self) -> Dict[str, int]:
        with self._stats_lock:
            return dict(self._counters)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- aggregation ---------------------------------------------------------
    def _poll_shards(self, path: str) -> Dict[int, Any]:
        """``GET path`` from every shard; unreachable shards are absent."""
        results: Dict[int, Any] = {}

        def poll(shard: ShardEndpoint) -> None:
            try:
                status, document = shard.request_json("GET", path)
                if status == 200:
                    results[shard.index] = document
            except ShardUnavailable:
                self.count("shard_errors")

        futures = [self.fanout.submit(poll, shard) for shard in self.shards.values()]
        for future in futures:
            future.result()
        return results

    def health_document(self) -> Tuple[int, Dict[str, Any]]:
        health = self._poll_shards("/health")
        datasets = sorted({
            name for document in health.values()
            for name in document.get("datasets", [])
        })
        healthy = len(health)
        return 200, {
            "api": wire.API_VERSION,
            "status": "ok" if healthy == len(self.shards) else "degraded",
            "datasets": datasets,
            "shards": {
                "total": len(self.shards),
                "healthy": healthy,
                "unreachable": sorted(set(self.shards) - set(health)),
            },
        }

    def stats_document(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /datasets`` in the single-process shape, tier-assembled.

        Pinned datasets report from their ring-owner shard (the only one
        whose private ledger moves); group members report from any live
        shard — their budget is the coordinator's, identical everywhere.
        Cache counters and spend totals are summed; per-shard details are
        new information under ``cluster``.
        """
        stats = self._poll_shards("/datasets")
        if not stats:
            return 503, wire.error_document(
                "shard_unavailable", "no shard is reachable", detail={"shard": None}
            )
        any_doc = next(iter(stats.values()))
        datasets: List[Dict[str, Any]] = []
        for entry in any_doc.get("datasets", []):
            name = entry.get("name", "")
            if name in self.pinned:
                owner = self.owner(name, "")
                for candidate in stats.get(owner, any_doc).get("datasets", []):
                    if candidate.get("name") == name:
                        entry = candidate
                        break
            datasets.append(entry)
        document: Dict[str, Any] = {
            "api": wire.API_VERSION,
            "status": "ok",
            "datasets": datasets,
            "groups": any_doc.get("groups", {}),
            "cache": _sum_counters([
                doc.get("cache", {}) for doc in stats.values()
            ]),
            "workers": sum(doc.get("workers") or 0 for doc in stats.values()),
            "seed": any_doc.get("seed"),
            "spend": _sum_counters([
                doc.get("spend", {}) for doc in stats.values()
            ]),
            "frontend": self.frontend_stats(),
            "cluster": {
                "shards": [
                    {
                        "shard": index,
                        "url": self.shards[index].url,
                        "healthy": index in stats,
                        "cache": stats[index].get("cache") if index in stats else None,
                        "workers": stats[index].get("workers") if index in stats else None,
                    }
                    for index in sorted(self.shards)
                ],
                "pinned": sorted(self.pinned),
            },
        }
        return 200, document

    def proxy_first_live(self, method: str, path: str) -> Tuple[int, Dict[str, Any]]:
        """Forward a read to the first reachable shard (identical everywhere)."""
        last_error = "no shards configured"
        for index in sorted(self.shards):
            try:
                return self.shards[index].request_json(method, path)
            except ShardUnavailable as exc:
                self.count("shard_errors")
                last_error = str(exc)
        return 503, wire.error_document(
            "shard_unavailable",
            f"no shard is reachable: {last_error}",
            detail={"shard": None},
        )

    def frontend_stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "frontend": "router",
            "shards": len(self.shards),
            "max_body": self.max_body,
        }
        stats.update(self.counters())
        return stats

    def metrics_text(self) -> str:
        """Prometheus text: router counters plus per-shard liveness and cache."""
        stats = self._poll_shards("/datasets")
        counters = self.counters()
        lines = [
            "# HELP repro_router_requests_total Requests accepted by the router.",
            "# TYPE repro_router_requests_total counter",
            f"repro_router_requests_total {counters['requests']}",
            "# HELP repro_router_forwarded_total Requests forwarded to a shard.",
            "# TYPE repro_router_forwarded_total counter",
            f"repro_router_forwarded_total {counters['forwarded']}",
            "# HELP repro_router_shard_errors_total Forwards that found a shard unreachable.",
            "# TYPE repro_router_shard_errors_total counter",
            f"repro_router_shard_errors_total {counters['shard_errors']}",
            "# HELP repro_router_shard_up Shard reachability (1 = answering).",
            "# TYPE repro_router_shard_up gauge",
        ]
        for index in sorted(self.shards):
            lines.append(
                f'repro_router_shard_up{{shard="{index}"}} {1 if index in stats else 0}'
            )
        cache = _sum_counters([doc.get("cache", {}) for doc in stats.values()])
        lines += [
            "# HELP repro_cache_hits_total Answer-cache hits, summed over shards.",
            "# TYPE repro_cache_hits_total counter",
            f"repro_cache_hits_total {cache.get('hits', 0)}",
            "# HELP repro_cache_misses_total Answer-cache misses, summed over shards.",
            "# TYPE repro_cache_misses_total counter",
            f"repro_cache_misses_total {cache.get('misses', 0)}",
        ]
        return "\n".join(lines) + "\n"

    def handle_error(self, request, client_address) -> None:
        """Socket-level failures are counters, never tracebacks (see http.py)."""
        exc = sys.exc_info()[1]
        if isinstance(exc, _TRANSPORT_ERRORS):
            self.count("disconnects")
            return
        print(
            f"router error handling request from {client_address}: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
            flush=True,
        )

    def server_close(self) -> None:
        super().server_close()
        self.fanout.shutdown(wait=False)
        for shard in self.shards.values():
            shard.close()


def make_router(
    shards: List[ShardEndpoint],
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> RouterServer:
    """Bind a :class:`RouterServer` (``port=0`` picks an ephemeral port)."""
    return RouterServer((host, port), shards, **kwargs)


def serve_router(server: RouterServer) -> threading.Thread:
    """Run ``server`` on a daemon thread; returns the (started) thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def load_router_plan(path: Any) -> Dict[str, Any]:
    """Decode the router plan JSON ``repro compose`` writes.

    Shape: ``{"host": ..., "port": ..., "shards": [{"index": 0, "host": ...,
    "port": ...}, ...], "pinned": [...], "trace_ring": 256, "quiet": false}``.
    """
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or not isinstance(document.get("shards"), list):
        raise ValueError(f"router plan {path} must be an object with a 'shards' list")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.cluster.router --plan router.json`` (compose-run)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-cluster-router",
        description="consistent-hashing front door for a repro shard fleet",
    )
    parser.add_argument("--plan", required=True, help="router plan JSON from repro compose")
    options = parser.parse_args(argv)
    plan = load_router_plan(options.plan)
    shards = [
        ShardEndpoint(entry["index"], entry["host"], int(entry["port"]))
        for entry in plan["shards"]
    ]
    tracer = None
    ring_size = int(plan.get("trace_ring", 256))
    if ring_size > 0:
        from repro.obs import TraceRecorder

        tracer = TraceRecorder(ring_size)
    server = make_router(
        shards,
        host=str(plan.get("host", "127.0.0.1")),
        port=int(plan.get("port", 0)),
        pinned=plan.get("pinned", ()),
        tracer=tracer,
        quiet=bool(plan.get("quiet", True)),
    )
    host, port = server.server_address[:2]
    print(
        json.dumps(
            {"event": "listening", "component": "router", "host": host, "port": port}
        ),
        flush=True,
    )
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by repro compose
    raise SystemExit(main())

"""``repro.cluster`` — the multi-process sharded serving tier.

The single-process query service (``repro.service``) is bit-for-bit
deterministic but tops out at one GIL.  This package scales it horizontally
without touching its semantics:

``ring``
    A deterministic consistent-hash ring.  The router hashes requests on
    their ``(dataset, kind)`` route key so every query for the same cache
    key always lands on the same shard, adding a shard remaps only
    ~1/(N+1) of keys, and removing one never moves keys it did not own.

``rpc``
    A line-delimited-JSON TCP client for the budget coordinator, plus the
    framing shared with the server.  Pure stdlib, no ``repro.service``
    imports — the service layer imports *us*, never the reverse.

``coordinator``
    The process that owns the ``BudgetManager`` for every joint budget
    group spanning shards.  The registry's existing group semantics
    (reserve/commit/cancel) *are* the RPC surface, so reserve→commit
    stays atomic cluster-wide.  Shard-local datasets with private budgets
    never pay the RPC round-trip — the router pins them to one shard.

``router``
    A stdlib HTTP front-end that forwards the v1 wire envelope verbatim
    (including trace ids, so one trace id spans router→shard) over
    keep-alive connections, and answers ``/health``, ``/datasets`` and
    ``/metrics`` as cluster-level aggregations of the shards' surfaces.

``compose``
    ``pods-compose``-style lifecycle management (``--up/--down/--ps/
    --generate``): one serving config in, per-shard configs out (port
    allocation, shared seed so any shard answers bit-for-bit identically,
    coordinator endpoint wiring), with supervised start-up and clean
    teardown of the coordinator + shard + router processes.

Budget discipline in this package is enforced by lint rule REP008: no
module here other than ``coordinator.py`` may construct or mutate a
``BudgetManager`` — the coordinator RPC client is the only budget path in
the router/compose layer.
"""

from repro.cluster.ring import HashRing, route_key
from repro.cluster.rpc import CoordinatorClient

__all__ = ["HashRing", "route_key", "CoordinatorClient"]

"""``repro.service`` — a concurrent private-query service.

The deployment story the estimators exist for: datasets are *registered*
with a finite total privacy budget, analysts submit typed *queries* — any
kind in the :mod:`repro.estimators` spec registry: the universal
mean / variance / quantile / IQR / multivariate mean plus every adapted
``baseline.*`` estimator (advertised by ``GET /kinds``) — and the service

* atomically **admits or refuses** each query against the remaining budget
  (:class:`BudgetManager`: reserve → commit, per-analyst sub-budgets,
  structured refusals that leave the ledger untouched);
* answers **identical repeated queries from cache at zero marginal
  epsilon** (:class:`AnswerCache` — DP post-processing, and the service's
  main throughput lever);
* **fans concurrent distinct queries out** through a shared
  :class:`repro.engine.EnginePool` (:class:`QueryService`, with a serial
  in-process fallback and :class:`repro.engine.SharedArray` hand-off for
  ``share=True`` datasets);
* speaks **JSON over HTTP** via two interchangeable stdlib front-ends —
  a single-event-loop asyncio server (:mod:`repro.service.aio`, the
  default) that answers cache hits and refusals without leaving the loop,
  and thread-per-connection (:mod:`repro.service.http`) — both transports
  over one request core (:mod:`repro.service.app`) (CLI: ``repro serve
  [--frontend threaded]`` / ``repro query``);
* boots **multi-dataset deployments from a declarative config**
  (:mod:`repro.service.config`: TOML/JSON sources, budgets, cache, workers)
  including **joint budget groups** — one epsilon cap spanning several
  datasets (``repro serve --config serving.toml``);
* exposes a **live control plane** (:mod:`repro.service.admin`): an
  authenticated ``/admin`` surface that hot-reloads the serving config
  through a declarative differ — add datasets, rotate analyst budgets,
  resize the cache, drain a dataset before removal — plus per-analyst /
  per-kind **token-bucket rate limits** (:mod:`repro.service.qos`, 429
  before any budget is touched) and a **Prometheus** ``GET /metrics``
  exposition (:mod:`repro.service.metrics`) with per-kind latency
  histograms (``repro admin reload|drain|stats``);
* carries **end-to-end observability** (:mod:`repro.obs`): a trace id per
  request with pipeline-stage spans (``GET /debug/traces``,
  ``repro trace <id>``, slow-query log), a hash-chained tamper-evident
  privacy **audit trail** whose replay reproduces every ledger total
  bit-for-bit (``repro audit verify|spend``), and per-analyst / per-kind
  epsilon-spent gauges on ``/metrics`` (``[observability]`` config
  section).

Under a fixed service ``seed`` every answer is bit-for-bit identical for
``workers=1`` and ``workers=N`` — each query's randomness is derived from
``(service seed, canonical query key)``, never from scheduling.

Quick start
-----------
>>> import numpy as np
>>> from repro.service import QueryService
>>> service = QueryService(seed=7)
>>> _ = service.register("heights", np.random.default_rng(0).normal(170, 8, 20_000),
...                      total_budget=2.0)
>>> answer = service.query("heights", "mean", epsilon=0.5)
>>> answer.ok and abs(answer.value - 170) < 2
True
>>> service.query("heights", "mean", epsilon=0.5).cached  # same query: free
True
"""

from repro.service.cache import AnswerCache, CacheStats
from repro.service.executor import QueryAnswer, QueryRequest, QueryService
from repro.service.queries import (
    QUERY_KINDS,
    InvalidQueryError,
    Query,
    QueryPlan,
    UnknownQueryKindError,
    plan_query,
)
from repro.service.registry import (
    BudgetManager,
    DatasetRegistry,
    RegisteredDataset,
    RemoteBudgetManager,
    Reservation,
    UnknownDatasetError,
)
from repro.service.http import (
    DEFAULT_MAX_BODY,
    ServiceServer,
    make_server,
    serve_forever,
)
from repro.service.aio import (
    AsyncServerThread,
    AsyncServiceServer,
    serve_async,
    start_async_server,
)
from repro.service.config import (
    AdminConfig,
    BuiltService,
    ClusterConfig,
    DatasetConfig,
    GroupConfig,
    ObservabilityConfig,
    ServingConfig,
    build_service,
    load_serving_config,
    parse_serving_config,
)
from repro.service.admin import (
    AdminController,
    ConfigChange,
    ReloadRejected,
    diff_serving_configs,
)
from repro.service.metrics import LatencyRecorder, render_prometheus
from repro.service.qos import (
    LimitSpec,
    RateLimitDecision,
    RateLimiter,
    RateLimits,
)

__all__ = [
    "QueryService",
    "QueryRequest",
    "QueryAnswer",
    "Query",
    "QueryPlan",
    "QUERY_KINDS",
    "plan_query",
    "InvalidQueryError",
    "UnknownQueryKindError",
    "BudgetManager",
    "RemoteBudgetManager",
    "Reservation",
    "DatasetRegistry",
    "RegisteredDataset",
    "UnknownDatasetError",
    "AnswerCache",
    "CacheStats",
    "ServiceServer",
    "make_server",
    "serve_forever",
    "DEFAULT_MAX_BODY",
    "AsyncServiceServer",
    "AsyncServerThread",
    "serve_async",
    "start_async_server",
    "BuiltService",
    "ClusterConfig",
    "DatasetConfig",
    "GroupConfig",
    "ObservabilityConfig",
    "ServingConfig",
    "build_service",
    "load_serving_config",
    "parse_serving_config",
    "AdminConfig",
    "AdminController",
    "ConfigChange",
    "ReloadRejected",
    "diff_serving_configs",
    "LatencyRecorder",
    "render_prometheus",
    "LimitSpec",
    "RateLimitDecision",
    "RateLimiter",
    "RateLimits",
]

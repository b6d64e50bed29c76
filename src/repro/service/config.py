"""Declarative serving config: boot a multi-dataset service from one file.

``repro serve --config serving.toml`` reads a TOML (or JSON) document
describing an entire deployment — many datasets in one process, each with a
CSV/NPY source (or inline values), a private budget or a **joint budget
group** membership, per-analyst sub-budgets, engine workers, cache size and
the front-end flavour — validates it, and builds the
:class:`~repro.service.QueryService` plus its engine pool in one call.

The TOML grammar (JSON mirrors the same structure)::

    [service]
    seed = 7              # optional: deterministic answers
    workers = 4           # engine-pool processes (1 = serial in-process)
    cache_size = 4096     # answer-cache entries (omit = unbounded, 0 = off)
    frontend = "async"    # "threaded" or "async"
    host = "127.0.0.1"
    port = 8080           # 0 picks an ephemeral port
    max_body = 1048576    # request-body cap in bytes (413 beyond it)
    allow_register = false
    quiet = false

    [groups.clinical]     # one BudgetManager cap spanning member datasets
    budget = 4.0
    [groups.clinical.analyst_budgets]
    dashboard = 1.0

    [[datasets]]
    name = "salaries"
    source = "salaries.csv"    # .csv (needs column=) or .npy, relative to
    column = "salary"          # the config file's directory
    budget = 6.0               # private budget: exactly one of budget/group
    share = true               # optional: shared-memory hand-off override
    kinds = ["mean", "baseline.bounded_laplace_mean"]
                               # optional allowlist of registered estimator
                               # kinds (omit = serve every registered kind;
                               # unknown names fail at boot)
    [datasets.analyst_budgets]
    alice = 2.0

    [[datasets]]
    name = "heights"
    source = "heights.npy"
    group = "clinical"         # draws from the joint group cap

    [admin]                    # optional: enables the live /admin surface
    token = "change-me"        # shared secret; or token_env = "REPRO_ADMIN_TOKEN"

    [limits]                   # optional: token-bucket QoS (429 pre-admission)
    analyst_rate = 20.0        # default per-analyst sustained requests/second
    analyst_burst = 40         # bucket capacity (defaults to max(rate, 1))
    kind_rate = 100.0          # default per-estimator-kind limit
    [limits.analysts.alice]    # per-analyst override
    rate = 2.0
    burst = 4
    [limits.kinds.variance]    # per-kind override (keyed on spec.name)
    rate = 10.0

    [observability]            # optional: tracing + the privacy audit trail
    trace_ring = 256           # finished traces kept for GET /debug/traces
                               # (0 disables tracing entirely)
    slow_query_ms = 250.0      # slow-query log threshold (omit = off)
    audit_log = "audit.jsonl"  # hash-chained JSONL audit trail, relative to
                               # the config file (omit = no audit log)

    [cluster]                  # optional: the sharded tier (repro compose)
    shards = 4                 # replica count behind the router
    router_port = 8080         # router listen port (0 = allocate free)
    coordinator_port = 0       # budget-coordinator RPC port (0 = allocate)
    shard_base_port = 0        # first shard port, +1 per shard (0 = allocate)
                               # (shard_index= and coordinator= appear only in
                               # the per-shard configs `repro compose` emits)

Inline data (``values = [1.0, 2.0, ...]``) is accepted in place of
``source`` — handy for tests and tiny demos.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import DomainError
from repro.service.cache import AnswerCache
from repro.service.executor import QueryService
from repro.service.http import DEFAULT_MAX_BODY
from repro.service.qos import LimitSpec, RateLimiter, RateLimits

__all__ = [
    "AdminConfig",
    "ClusterConfig",
    "DatasetConfig",
    "GroupConfig",
    "ObservabilityConfig",
    "ServingConfig",
    "BuiltService",
    "parse_serving_config",
    "load_serving_config",
    "load_serving_document",
    "shard_document",
    "build_service",
]

#: Default environment variable consulted for the admin shared secret when
#: the config file does not set ``[admin] token=``.
ADMIN_TOKEN_ENV = "REPRO_ADMIN_TOKEN"

_FRONTENDS = ("threaded", "async")


@dataclass(frozen=True)
class GroupConfig:
    """One joint budget group: a single cap shared by its member datasets."""

    name: str
    budget: float
    analyst_budgets: Optional[Mapping[str, float]] = None


@dataclass(frozen=True)
class DatasetConfig:
    """One dataset to serve: its source and its budget (private or group)."""

    name: str
    source: Optional[str] = None
    column: Optional[str] = None
    values: Optional[Tuple[float, ...]] = None
    budget: Optional[float] = None
    group: Optional[str] = None
    analyst_budgets: Optional[Mapping[str, float]] = None
    share: Optional[bool] = None  # None = auto (shared memory iff pool forks)
    kinds: Optional[Tuple[str, ...]] = None  # None = every registered kind


@dataclass(frozen=True)
class AdminConfig:
    """The ``[admin]`` section: shared-secret auth for the live control plane.

    ``token`` is the secret itself; when absent, the environment variable
    named by ``token_env`` is consulted at boot.  With neither set the
    ``/admin`` surface answers 403 ``admin_disabled``.
    """

    token: Optional[str] = None
    token_env: str = ADMIN_TOKEN_ENV


@dataclass(frozen=True)
class ObservabilityConfig:
    """The ``[observability]`` section: tracing + the privacy audit trail.

    ``trace_ring`` caps the in-memory ring of finished traces served by
    ``GET /debug/traces`` (0 disables tracing); ``slow_query_ms`` — when
    set — logs any trace at least that slow; ``audit_log`` names the
    hash-chained JSONL audit-trail file (relative paths resolve against the
    config file's directory).  Ring size and threshold are live-serviceable
    over ``/admin/reload``; the audit log path is restart-only.
    """

    trace_ring: int = 256
    slow_query_ms: Optional[float] = None
    audit_log: Optional[str] = None


@dataclass(frozen=True)
class ClusterConfig:
    """The ``[cluster]`` section: the sharded serving tier (``repro compose``).

    In the *source* config (what an operator writes), ``shards`` sizes the
    tier and the ``*_port`` knobs pin listening ports (0 = allocate a free
    one at compose time).  In the *generated* per-shard configs
    (:func:`shard_document`), ``shard_index`` identifies the replica and
    ``coordinator`` carries the budget-coordinator endpoint — its presence
    is what makes :func:`build_service` install a
    :class:`~repro.service.registry.RemoteBudgetManager` proxy for every
    joint budget group instead of a shard-local ledger.  Private-budget
    datasets never involve the coordinator: the router pins them to one
    shard, whose local manager stays authoritative.
    """

    shards: int = 1
    coordinator: Optional[str] = None  # "host:port"; set in generated configs
    coordinator_port: int = 0
    router_port: int = 0
    shard_base_port: int = 0
    shard_index: Optional[int] = None


@dataclass(frozen=True)
class ServingConfig:
    """A validated serving document, ready for :func:`build_service`."""

    datasets: Tuple[DatasetConfig, ...]
    groups: Tuple[GroupConfig, ...] = ()
    seed: Optional[int] = None
    workers: int = 1
    cache_size: Optional[int] = None
    host: str = "127.0.0.1"
    port: int = 8080
    frontend: str = "threaded"
    max_body: Optional[int] = DEFAULT_MAX_BODY
    allow_register: bool = False
    quiet: bool = False
    admin: Optional[AdminConfig] = None
    limits: Optional[RateLimits] = None
    observability: Optional[ObservabilityConfig] = None
    cluster: Optional[ClusterConfig] = None
    base_dir: Optional[Path] = None  # resolves relative dataset sources
    source_path: Optional[Path] = None  # the file this config was loaded from


# ---------------------------------------------------------------------------
# document parsing


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(f"serving config: {message}")


def _parse_analyst_budgets(raw: Any, where: str) -> Optional[Dict[str, float]]:
    if raw is None:
        return None
    _require(isinstance(raw, Mapping), f"{where}.analyst_budgets must be a table")
    budgets: Dict[str, float] = {}
    for name, cap in raw.items():
        try:
            budgets[str(name)] = float(cap)
        except (TypeError, ValueError):
            raise DomainError(
                f"serving config: {where}.analyst_budgets[{name!r}] must be a "
                f"number, got {cap!r}"
            ) from None
    return budgets


def _parse_dataset(raw: Any, index: int) -> DatasetConfig:
    where = f"datasets[{index}]"
    _require(isinstance(raw, Mapping), f"{where} must be a table")
    unknown = set(raw) - {
        "name", "source", "column", "values", "budget", "group",
        "analyst_budgets", "share", "kinds",
    }
    _require(not unknown, f"{where} has unknown keys: {sorted(unknown)}")
    _require("name" in raw and str(raw["name"]), f"{where} needs a non-empty name")
    name = str(raw["name"])
    source = raw.get("source")
    values = raw.get("values")
    _require(
        (source is None) != (values is None),
        f"{where} ({name!r}) needs exactly one of source= or values=",
    )
    if values is not None:
        _require(
            isinstance(values, (list, tuple)),
            f"{where} ({name!r}) values must be an array",
        )
        try:
            values = tuple(float(value) for value in values)
        except (TypeError, ValueError):
            raise DomainError(
                f"serving config: {where} ({name!r}) values must be numbers"
            ) from None
    column = raw.get("column")
    if source is not None and str(source).lower().endswith(".csv"):
        _require(column is not None, f"{where} ({name!r}): a .csv source needs column=")
    else:
        _require(column is None, f"{where} ({name!r}): column= is only for .csv sources")
    budget = raw.get("budget")
    group = raw.get("group")
    _require(
        (budget is None) != (group is None),
        f"{where} ({name!r}) needs exactly one of budget= or group=",
    )
    if budget is not None:
        try:
            budget = float(budget)
        except (TypeError, ValueError):
            raise DomainError(
                f"serving config: {where} ({name!r}) budget must be a number"
            ) from None
    analyst_budgets = _parse_analyst_budgets(raw.get("analyst_budgets"), where)
    _require(
        analyst_budgets is None or group is None,
        f"{where} ({name!r}): analyst budgets of a joint group belong under "
        "[groups.<name>.analyst_budgets], not on member datasets",
    )
    share = raw.get("share")
    _require(
        share is None or isinstance(share, bool),
        f"{where} ({name!r}) share must be a boolean",
    )
    kinds = raw.get("kinds")
    if kinds is not None:
        from repro.estimators import registered_kinds

        _require(
            isinstance(kinds, (list, tuple))
            and kinds
            and all(isinstance(kind, str) and kind for kind in kinds),
            f"{where} ({name!r}) kinds must be a non-empty array of kind names",
        )
        known = set(registered_kinds())
        unknown_kinds = sorted(set(kinds) - known)
        _require(
            not unknown_kinds,
            f"{where} ({name!r}) names unknown estimator kind(s) "
            f"{unknown_kinds} (registered: {sorted(known)})",
        )
        kinds = tuple(dict.fromkeys(kinds))
    return DatasetConfig(
        name=name,
        source=None if source is None else str(source),
        column=None if column is None else str(column),
        values=values,
        budget=budget,
        group=None if group is None else str(group),
        analyst_budgets=analyst_budgets,
        share=share,
        kinds=kinds,
    )


def _parse_admin(raw: Any) -> Optional[AdminConfig]:
    if raw is None:
        return None
    _require(isinstance(raw, Mapping), "[admin] must be a table")
    unknown = set(raw) - {"token", "token_env"}
    _require(not unknown, f"[admin] has unknown keys: {sorted(unknown)}")
    token = raw.get("token")
    if token is not None:
        _require(
            isinstance(token, str) and bool(token),
            "[admin] token must be a non-empty string",
        )
    token_env = raw.get("token_env", ADMIN_TOKEN_ENV)
    _require(
        isinstance(token_env, str) and bool(token_env),
        "[admin] token_env must be a non-empty string",
    )
    return AdminConfig(token=token, token_env=token_env)


def _parse_limit_spec(raw: Any, where: str) -> LimitSpec:
    _require(isinstance(raw, Mapping), f"[{where}] must be a table")
    unknown = set(raw) - {"rate", "burst"}
    _require(not unknown, f"[{where}] has unknown keys: {sorted(unknown)}")
    _require("rate" in raw, f"[{where}] needs a rate")
    return _limit_spec(raw["rate"], raw.get("burst"), where)


def _limit_spec(raw_rate: Any, raw_burst: Any, where: str) -> LimitSpec:
    try:
        rate = float(raw_rate)
        burst = max(1.0, rate) if raw_burst is None else float(raw_burst)
    except (TypeError, ValueError):
        raise DomainError(
            f"serving config: [{where}] rate/burst must be numbers"
        ) from None
    return LimitSpec(rate=rate, burst=burst)


def _parse_limits(raw: Any) -> Optional[RateLimits]:
    if raw is None:
        return None
    _require(isinstance(raw, Mapping), "[limits] must be a table")
    unknown = set(raw) - {
        "analyst_rate", "analyst_burst", "kind_rate", "kind_burst",
        "analysts", "kinds",
    }
    _require(not unknown, f"[limits] has unknown keys: {sorted(unknown)}")
    for default, scope in (("analyst_rate", "analyst"), ("kind_rate", "kind")):
        _require(
            default in raw or f"{scope}_burst" not in raw,
            f"[limits] {scope}_burst needs {default} alongside it",
        )
    analyst = (
        _limit_spec(raw["analyst_rate"], raw.get("analyst_burst"), "limits")
        if "analyst_rate" in raw
        else None
    )
    kind = (
        _limit_spec(raw["kind_rate"], raw.get("kind_burst"), "limits")
        if "kind_rate" in raw
        else None
    )
    overrides: Dict[str, Dict[str, LimitSpec]] = {"analysts": {}, "kinds": {}}
    for section in ("analysts", "kinds"):
        table = raw.get(section, {})
        _require(
            isinstance(table, Mapping),
            f"[limits.{section}] must be a table of per-name tables",
        )
        for name, spec_raw in table.items():
            overrides[section][str(name)] = _parse_limit_spec(
                spec_raw, f"limits.{section}.{name}"
            )
    return RateLimits(
        analyst=analyst,
        kind=kind,
        analysts=overrides["analysts"],
        kinds=overrides["kinds"],
    )


def _parse_observability(raw: Any) -> Optional[ObservabilityConfig]:
    if raw is None:
        return None
    _require(isinstance(raw, Mapping), "[observability] must be a table")
    unknown = set(raw) - {"trace_ring", "slow_query_ms", "audit_log"}
    _require(not unknown, f"[observability] has unknown keys: {sorted(unknown)}")
    try:
        trace_ring = int(raw.get("trace_ring", 256))
    except (TypeError, ValueError):
        raise DomainError(
            "serving config: [observability] trace_ring must be an integer"
        ) from None
    _require(
        trace_ring >= 0,
        f"[observability] trace_ring must be >= 0, got {trace_ring}",
    )
    slow_query_ms = raw.get("slow_query_ms")
    if slow_query_ms is not None:
        try:
            slow_query_ms = float(slow_query_ms)
        except (TypeError, ValueError):
            raise DomainError(
                "serving config: [observability] slow_query_ms must be a number"
            ) from None
        _require(
            slow_query_ms >= 0,
            f"[observability] slow_query_ms must be >= 0, got {slow_query_ms}",
        )
    audit_log = raw.get("audit_log")
    if audit_log is not None:
        _require(
            isinstance(audit_log, str) and bool(audit_log),
            "[observability] audit_log must be a non-empty path string",
        )
    return ObservabilityConfig(
        trace_ring=trace_ring,
        slow_query_ms=slow_query_ms,
        audit_log=audit_log,
    )


def _parse_port(raw: Any, where: str) -> int:
    try:
        port = int(raw)
    except (TypeError, ValueError):
        raise DomainError(f"serving config: {where} must be an integer") from None
    _require(0 <= port <= 65535, f"{where} must be in [0, 65535], got {port}")
    return port


def _parse_cluster(raw: Any) -> Optional[ClusterConfig]:
    if raw is None:
        return None
    _require(isinstance(raw, Mapping), "[cluster] must be a table")
    unknown = set(raw) - {
        "shards", "coordinator", "coordinator_port", "router_port",
        "shard_base_port", "shard_index",
    }
    _require(not unknown, f"[cluster] has unknown keys: {sorted(unknown)}")
    try:
        shards = int(raw.get("shards", 1))
    except (TypeError, ValueError):
        raise DomainError(
            "serving config: [cluster] shards must be an integer"
        ) from None
    _require(shards >= 1, f"[cluster] shards must be >= 1, got {shards}")
    coordinator = raw.get("coordinator")
    if coordinator is not None:
        _require(
            isinstance(coordinator, str) and ":" in coordinator,
            "[cluster] coordinator must be a 'host:port' string",
        )
        _parse_port(coordinator.rpartition(":")[2], "[cluster] coordinator port")
    shard_index = raw.get("shard_index")
    if shard_index is not None:
        try:
            shard_index = int(shard_index)
        except (TypeError, ValueError):
            raise DomainError(
                "serving config: [cluster] shard_index must be an integer"
            ) from None
        _require(
            0 <= shard_index < shards,
            f"[cluster] shard_index must be in [0, {shards}), got {shard_index}",
        )
    return ClusterConfig(
        shards=shards,
        coordinator=coordinator,
        coordinator_port=_parse_port(
            raw.get("coordinator_port", 0), "[cluster] coordinator_port"
        ),
        router_port=_parse_port(raw.get("router_port", 0), "[cluster] router_port"),
        shard_base_port=_parse_port(
            raw.get("shard_base_port", 0), "[cluster] shard_base_port"
        ),
        shard_index=shard_index,
    )


def parse_serving_config(
    document: Mapping[str, Any],
    *,
    base_dir: Optional[Path] = None,
    source_path: Optional[Path] = None,
) -> ServingConfig:
    """Validate a decoded config document into a :class:`ServingConfig`."""
    _require(isinstance(document, Mapping), "top level must be a table/object")
    unknown = set(document) - {
        "service", "groups", "datasets", "admin", "limits", "observability",
        "cluster",
    }
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")

    service_raw = document.get("service", {})
    _require(isinstance(service_raw, Mapping), "[service] must be a table")
    unknown = set(service_raw) - {
        "seed", "workers", "cache_size", "host", "port", "frontend",
        "max_body", "allow_register", "quiet",
    }
    _require(not unknown, f"[service] has unknown keys: {sorted(unknown)}")
    frontend = str(service_raw.get("frontend", "threaded"))
    _require(
        frontend in _FRONTENDS,
        f"[service] frontend must be one of {list(_FRONTENDS)}, got {frontend!r}",
    )
    workers = int(service_raw.get("workers", 1))
    _require(workers >= 1, f"[service] workers must be >= 1, got {workers}")
    cache_size = service_raw.get("cache_size")
    if cache_size is not None:
        cache_size = int(cache_size)
        _require(cache_size >= 0, f"[service] cache_size must be >= 0, got {cache_size}")
    seed = service_raw.get("seed")
    port = int(service_raw.get("port", 8080))
    _require(0 <= port <= 65535, f"[service] port must be in [0, 65535], got {port}")
    max_body = service_raw.get("max_body", DEFAULT_MAX_BODY)
    if max_body is not None:
        max_body = int(max_body)
        _require(max_body > 0, f"[service] max_body must be > 0, got {max_body}")

    groups_raw = document.get("groups", {})
    _require(isinstance(groups_raw, Mapping), "[groups] must be a table of tables")
    groups: List[GroupConfig] = []
    for name, raw in groups_raw.items():
        where = f"groups.{name}"
        _require(isinstance(raw, Mapping), f"[{where}] must be a table")
        unknown = set(raw) - {"budget", "analyst_budgets"}
        _require(not unknown, f"[{where}] has unknown keys: {sorted(unknown)}")
        _require("budget" in raw, f"[{where}] needs a budget")
        try:
            budget = float(raw["budget"])
        except (TypeError, ValueError):
            raise DomainError(
                f"serving config: [{where}] budget must be a number"
            ) from None
        groups.append(
            GroupConfig(
                name=str(name),
                budget=budget,
                analyst_budgets=_parse_analyst_budgets(
                    raw.get("analyst_budgets"), where
                ),
            )
        )

    datasets_raw = document.get("datasets", [])
    _require(
        isinstance(datasets_raw, (list, tuple)) and datasets_raw,
        "config needs at least one [[datasets]] entry",
    )
    datasets = [_parse_dataset(raw, index) for index, raw in enumerate(datasets_raw)]
    names = [dataset.name for dataset in datasets]
    _require(
        len(set(names)) == len(names),
        f"duplicate dataset names: {sorted(n for n in names if names.count(n) > 1)}",
    )
    group_names = {group.name for group in groups}
    for dataset in datasets:
        _require(
            dataset.group is None or dataset.group in group_names,
            f"dataset {dataset.name!r} references unknown group {dataset.group!r} "
            f"(known: {sorted(group_names) or 'none'})",
        )

    return ServingConfig(
        datasets=tuple(datasets),
        groups=tuple(groups),
        seed=None if seed is None else int(seed),
        workers=workers,
        cache_size=cache_size,
        host=str(service_raw.get("host", "127.0.0.1")),
        port=port,
        frontend=frontend,
        max_body=max_body,
        allow_register=bool(service_raw.get("allow_register", False)),
        quiet=bool(service_raw.get("quiet", False)),
        admin=_parse_admin(document.get("admin")),
        limits=_parse_limits(document.get("limits")),
        observability=_parse_observability(document.get("observability")),
        cluster=_parse_cluster(document.get("cluster")),
        base_dir=base_dir,
        source_path=source_path,
    )


def load_serving_document(path: Any) -> Dict[str, Any]:
    """Read a ``.toml`` or ``.json`` config file into its raw document.

    No validation beyond decoding — :func:`load_serving_config` is the
    validating loader.  ``repro compose`` uses the raw document as the
    template it derives per-shard configs from (:func:`shard_document`).
    """
    path = Path(path)
    if not path.exists():
        raise DomainError(f"serving config not found: {path}")
    text = path.read_text()
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"serving config {path} is not valid JSON: {exc}") from exc
    elif suffix == ".toml":
        try:
            document = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise DomainError(
                f"serving config {path} is not valid TOML: {exc}"
            ) from exc
    else:
        raise DomainError(
            f"serving config must be a .toml or .json file, got {path.name!r}"
        )
    if not isinstance(document, dict):
        raise DomainError(f"serving config {path}: top level must be a table/object")
    return document


def load_serving_config(path: Any) -> ServingConfig:
    """Read and validate a ``.toml`` or ``.json`` serving config file."""
    path = Path(path)
    document = load_serving_document(path)
    return parse_serving_config(document, base_dir=path.parent, source_path=path)


def shard_document(
    document: Mapping[str, Any],
    *,
    shard_index: int,
    shard_port: int,
    coordinator: str,
    base_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Derive one shard replica's serving document from a cluster template.

    Pure data transformation (``repro compose --generate`` writes the result
    as JSON): the shard keeps the template's datasets, groups, limits and —
    crucially — its ``seed``, so every replica derives identical per-query
    randomness and the tier answers bit-for-bit like a single process.  What
    changes per shard:

    * ``service.port`` → this shard's allocated port;
    * ``cluster.shard_index`` / ``cluster.coordinator`` → identity and the
      budget-coordinator endpoint (which switches joint groups to
      :class:`~repro.service.registry.RemoteBudgetManager` at boot);
    * ``observability.audit_log`` → a per-shard file (``audit.jsonl`` →
      ``audit.shard0.jsonl``): each hash chain has exactly one writer;
    * relative dataset ``source`` paths → absolute (the generated file lives
      in the compose directory, not next to the template).

    Requires an explicit ``service.seed``: without one each process would
    seed from entropy and answers would diverge across replicas.
    """
    import copy

    shard = copy.deepcopy(dict(document))
    service_raw = dict(shard.get("service", {}))
    if service_raw.get("seed") is None:
        raise DomainError(
            "serving config: a [cluster] deployment needs an explicit "
            "[service] seed= — replicas must share one seed to answer "
            "identically"
        )
    service_raw["port"] = int(shard_port)
    shard["service"] = service_raw
    cluster_raw = dict(shard.get("cluster", {}))
    cluster_raw["shard_index"] = int(shard_index)
    cluster_raw["coordinator"] = str(coordinator)
    shard["cluster"] = cluster_raw
    obs_raw = shard.get("observability")
    if isinstance(obs_raw, Mapping) and obs_raw.get("audit_log"):
        obs_raw = dict(obs_raw)
        audit = Path(str(obs_raw["audit_log"]))
        obs_raw["audit_log"] = str(
            audit.with_suffix(f".shard{shard_index}{audit.suffix}")
        )
        shard["observability"] = obs_raw
    if base_dir is not None:
        datasets_raw = shard.get("datasets")
        if isinstance(datasets_raw, list):
            for entry in datasets_raw:
                if isinstance(entry, dict) and entry.get("source"):
                    source = Path(str(entry["source"]))
                    if not source.is_absolute():
                        entry["source"] = str((Path(base_dir) / source).resolve())
    return shard


# ---------------------------------------------------------------------------
# building the service


@dataclass
class BuiltService:
    """A booted service plus the resources :func:`build_service` created.

    ``close()`` releases the registry's shared segments and — only when the
    pool was created here rather than passed in — the engine pool.

    ``limiter`` is the QoS rate limiter (always present; a no-op when the
    config has no ``[limits]``) and ``admin`` the live control plane
    (:class:`~repro.service.admin.AdminController`); the front-ends take
    both so every deployment path shares one wiring.  ``tracer`` and
    ``audit`` mirror ``service.tracer`` / ``service.audit`` (both ``None``
    without an ``[observability]`` section); the audit log is closed here.
    """

    service: QueryService
    config: ServingConfig
    pool: Any = None
    owns_pool: bool = False
    limiter: Optional[RateLimiter] = None
    admin: Any = None
    tracer: Any = None
    audit: Any = None
    coordinator: Any = None  # CoordinatorClient when [cluster] names one
    _closed: bool = field(default=False, repr=False)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.service.registry.close()
        if self.audit is not None:
            self.audit.close()
        if self.coordinator is not None:
            self.coordinator.close()
        if self.owns_pool and self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "BuiltService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _load_dataset_values(dataset: DatasetConfig, base_dir: Optional[Path]) -> np.ndarray:
    """Materialise one dataset's records from its configured source."""
    if dataset.values is not None:
        return np.asarray(dataset.values, dtype=float)
    assert dataset.source is not None  # parse_serving_config guarantees one of the two
    source = Path(dataset.source)
    if not source.is_absolute() and base_dir is not None:
        source = base_dir / source
    if not source.exists():
        raise DomainError(
            f"dataset {dataset.name!r}: source file not found: {source}"
        )
    # A column= marks the source as CSV-shaped whatever its suffix (the
    # legacy CLI accepts extensionless delimited files); config files are
    # stricter and only pair column= with .csv sources at parse time.
    if dataset.column is not None or source.suffix.lower() == ".csv":
        if dataset.column is None:
            raise DomainError(
                f"dataset {dataset.name!r}: a CSV source needs column="
            )
        from repro.cli import load_column

        return load_column(source, dataset.column)
    if source.suffix.lower() == ".npy":
        try:
            return np.asarray(np.load(source, allow_pickle=False), dtype=float)
        except ValueError as exc:
            raise DomainError(
                f"dataset {dataset.name!r}: cannot load {source}: {exc}"
            ) from exc
    raise DomainError(
        f"dataset {dataset.name!r}: source must be .csv or .npy, got {source.name!r}"
    )


def build_service(config: ServingConfig, *, pool: Any = None) -> BuiltService:
    """Boot a :class:`QueryService` (datasets, groups, cache, pool) from config.

    Pass an open :class:`~repro.engine.EnginePool` to share one across
    services; otherwise a pool is created when ``config.workers > 1`` and
    owned (closed) by the returned :class:`BuiltService`.
    """
    owns_pool = False
    if pool is None and config.workers > 1:
        from repro.engine import EnginePool

        pool = EnginePool(config.workers)
        owns_pool = True
    service = None
    tracer = None
    audit = None
    coordinator = None
    try:
        if config.observability is not None:
            from repro.obs import AuditLog, TraceRecorder

            obs = config.observability
            if obs.trace_ring > 0:
                tracer = TraceRecorder(
                    obs.trace_ring, slow_query_ms=obs.slow_query_ms
                )
            if obs.audit_log is not None:
                audit_path = Path(obs.audit_log)
                if not audit_path.is_absolute() and config.base_dir is not None:
                    audit_path = config.base_dir / audit_path
                audit = AuditLog(audit_path)
        service = QueryService(
            pool=pool,
            seed=config.seed,
            cache=AnswerCache(maxsize=config.cache_size),
            tracer=tracer,
            audit=audit,
        )
        if (
            config.cluster is not None
            and config.cluster.coordinator is not None
            and config.groups
        ):
            # A shard of a cluster: joint budget groups live in the budget
            # coordinator, so every group gets a RemoteBudgetManager proxy
            # instead of a shard-local ledger.  The proxy's constructor
            # issues the idempotent "create" RPC, which also verifies every
            # replica boots the group with the same cap.
            from repro.cluster.rpc import CoordinatorClient
            from repro.service.registry import RemoteBudgetManager

            host, _, port = config.cluster.coordinator.rpartition(":")
            coordinator = CoordinatorClient(host or "127.0.0.1", int(port))
            for group in config.groups:
                manager = RemoteBudgetManager(
                    f"group:{group.name}",
                    coordinator,
                    capacity=group.budget,
                    analyst_budgets=group.analyst_budgets,
                )
                service.registry.create_group(group.name, group.budget, manager=manager)
        else:
            for group in config.groups:
                service.registry.create_group(
                    group.name, group.budget, analyst_budgets=group.analyst_budgets
                )
        for dataset in config.datasets:
            values = _load_dataset_values(dataset, config.base_dir)
            share = dataset.share
            if share is None:
                share = pool is not None and pool.parallel
            service.register(
                dataset.name,
                values,
                dataset.budget,
                group=dataset.group,
                analyst_budgets=dataset.analyst_budgets,
                share=share,
                kinds=dataset.kinds,
            )
        limiter = RateLimiter(config.limits)
        # Imported here: repro.service.admin needs this module's parser and
        # loaders, so the dependency must stay one-way at import time.
        from repro.service.admin import AdminController

        admin = AdminController(
            service, config=config, limiter=limiter, pool=pool
        )
    except BaseException:
        # Release whatever was already built: shared-memory segments of
        # datasets registered before the failure, the audit log handle, and
        # the pool if owned.
        if service is not None:
            service.registry.close()
        if audit is not None:
            audit.close()
        if coordinator is not None:
            coordinator.close()
        if owns_pool:
            pool.close()
        raise
    return BuiltService(
        service=service,
        config=config,
        pool=pool,
        owns_pool=owns_pool,
        limiter=limiter,
        admin=admin,
        tracer=tracer,
        audit=audit,
        coordinator=coordinator,
    )

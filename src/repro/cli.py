"""Command-line interface: DP statistics over a CSV column with no domain bounds.

Usage (also available as ``python -m repro``)::

    python -m repro mean      data.csv --column salary --epsilon 0.5
    python -m repro variance  data.csv --column salary --epsilon 0.5
    python -m repro iqr       data.csv --column salary --epsilon 0.5
    python -m repro quantiles data.csv --column latency_us --levels 0.5 0.95 0.99

The CLI is a thin wrapper around the universal estimators: it never asks for a
range, a sigma bound or a distribution family — only the data, a privacy
budget, and (optionally) a seed for reproducibility.

``--trials N`` repeats the mean/variance/iqr release N times through
:mod:`repro.engine` (fan out with ``--workers``) and reports the spread of the
noisy estimates — useful for calibrating how much a single release can be
trusted.  The trial fan-out is deterministic for a fixed ``--seed`` regardless
of the worker count.  Each trial is an independent full-budget release, so
publishing all of them costs ``N * epsilon``; the spread is meant for offline
calibration, not joint publication.

``suite`` releases mean, variance and IQR in one invocation.  The three
statistics are independent grid cells executed through
:func:`repro.engine.run_grid` on one worker pool (``--grid-workers N``), and
``--trials`` repeats each of them.  As with ``--trials``, every release is
independent and full-budget: the total spend reported is
``3 * trials * epsilon``.  Results are bit-for-bit identical for any
``--grid-workers`` value given the same ``--seed``.

``serve`` starts a :mod:`repro.service` HTTP front-end: the CSV column is
registered as a dataset with a finite total privacy budget and queries are
answered over JSON until the budget runs out (identical repeated queries are
served from cache at zero marginal epsilon).  ``--config serving.toml``
replaces the single-column arguments with a declarative multi-dataset
deployment (per-dataset sources and budgets, joint budget groups, cache and
worker settings).  The default front-end is the asyncio door: one event
loop answers cache hits and refusals, and cold queries run in a small
executor.  ``--frontend threaded`` serves a thread per connection instead,
running each cold query inline on its connection's thread (one executor hop
cheaper per cold request).  ``query`` is the matching client::

    python -m repro serve data.csv --column salary --budget 20 --port 8080
    python -m repro serve --config serving.toml --frontend threaded
    python -m repro query mean --url http://127.0.0.1:8080 \
        --dataset salary --epsilon 0.5

``trace`` and ``audit`` are the observability companions (:mod:`repro.obs`):
``trace`` lists or fetches the pipeline-stage traces a running server keeps
in its ring (``GET /debug/traces``), ``audit verify`` recomputes a service's
hash-chained privacy audit log and fails on any tampered byte, and ``audit
spend`` replays it into per-budget-owner epsilon totals — optionally
cross-checked bit-for-bit against the live ledgers with ``--url``::

    python -m repro trace --url http://127.0.0.1:8080
    python -m repro trace 4f6d2a9c1b7e3508 --url http://127.0.0.1:8080
    python -m repro audit verify audit.jsonl
    python -m repro audit spend audit.jsonl --url http://127.0.0.1:8080

``lint`` statically checks sources against the project's own invariants
(:mod:`repro.lint`): REP001 no global-RNG calls, REP002 lock discipline,
REP003 reserve→commit budget pairing, REP004 estimator-spec explicitness,
REP005 front-end exception containment, REP006 audit-trail coverage of
budget and cache touch-points, REP007 sorted-input contract, REP008 cluster
budget isolation (only the coordinator owns a BudgetManager).  Exit code 0
means clean, 1 means findings, 2 means internal/usage error::

    python -m repro lint src
    python -m repro lint src --select REP002 REP003
    python -m repro lint src --ignore REP005 --format json
    python -m repro lint src --report lint-report.json

Silence one line with ``# repro: ignore[REP001]`` plus a comment saying why
the invariant does not apply there; suppressions stay listed in the report.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro import (
    PrivacyLedger,
    estimate_iqr,
    estimate_mean,
    estimate_quantiles,
    estimate_variance,
)
from repro._rng import spawn_seeds
from repro.engine import GridCell, run_batch, run_grid
from repro.estimators import get_estimator, iter_estimators, registered_kinds
from repro.exceptions import DomainError, MechanismError, ReproError

__all__ = ["build_parser", "load_column", "main"]


def _package_version() -> str:
    """The installed distribution version, falling back to the module's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("repro-universal-statistics")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover - importlib.metadata is 3.8+
        pass
    from repro import __version__

    return __version__


def _suite_kinds() -> List[str]:
    """Kinds the ``suite`` command can release: scalar, single-column,
    runnable without any required parameter (derived from the registry)."""
    return [
        spec.name
        for spec in iter_estimators()
        if spec.scalar
        and spec.dimension == "univariate"
        and not any(param.required for param in spec.params)
    ]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Universal pure-DP estimators for mean, variance, IQR and quantiles.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("csv_path", type=Path, help="Path to the input CSV file")
        sub.add_argument(
            "--column", required=True, help="Column name (header) or 0-based index to analyse"
        )
        sub.add_argument("--epsilon", type=float, default=1.0, help="Privacy budget (default 1.0)")
        sub.add_argument("--beta", type=float, default=1.0 / 3.0, help="Failure probability")
        sub.add_argument("--seed", type=int, default=None, help="Seed for reproducible noise")
        sub.add_argument(
            "--show-ledger", action="store_true", help="Print the per-mechanism budget spends"
        )
        sub.add_argument(
            "--trials",
            type=int,
            default=1,
            help="Repeat the release this many times and report the estimate spread",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="Worker processes for --trials > 1 (results are worker-count independent)",
        )

    for name, help_text in (
        ("mean", "estimate the statistical mean"),
        ("variance", "estimate the statistical variance"),
        ("iqr", "estimate the interquartile range"),
    ):
        add_common(subparsers.add_parser(name, help=help_text))

    quantiles = subparsers.add_parser("quantiles", help="estimate one or more quantiles")
    add_common(quantiles)
    quantiles.add_argument(
        "--levels",
        type=float,
        nargs="+",
        default=[0.5],
        help="Quantile levels in (0, 1), e.g. --levels 0.5 0.95 0.99",
    )

    suite = subparsers.add_parser(
        "suite",
        help="estimate mean, variance and IQR in one run (three independent "
             "releases); --kinds swaps in any parameter-free registered kind",
    )
    add_common(suite)
    suite.add_argument(
        "--grid-workers",
        type=int,
        default=1,
        help=(
            "Worker processes for the per-statistic grid fan-out "
            "(results are worker-count independent)"
        ),
    )
    suite.add_argument(
        "--kinds",
        nargs="+",
        choices=_suite_kinds(),
        default=None,
        metavar="KIND",
        help=(
            "Statistics to release (default: mean variance iqr). Any scalar "
            f"single-column kind needing no parameters works: {_suite_kinds()}"
        ),
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve DP queries over HTTP: one CSV column, or a multi-dataset "
             "--config deployment",
    )
    serve.add_argument(
        "csv_path", type=Path, nargs="?", default=None,
        help="Path to the input CSV file (omit when using --config)",
    )
    serve.add_argument(
        "--config", type=Path, default=None, metavar="FILE",
        help="Serving config (.toml or .json): many datasets, joint budget "
             "groups, cache/pool/front-end settings in one file",
    )
    serve.add_argument(
        "--column", default=None,
        help="Column name (header) or 0-based index to serve",
    )
    serve.add_argument(
        "--dataset", default=None,
        help="Dataset name clients address (default: the column name)",
    )
    serve.add_argument(
        "--budget", type=float, default=None,
        help="Total privacy budget (epsilon) the dataset may ever spend",
    )
    serve.add_argument(
        "--analyst-budget", action="append", default=[], metavar="NAME=EPS",
        help="Per-analyst sub-budget (repeatable), e.g. --analyst-budget alice=2.0",
    )
    serve.add_argument(
        "--frontend", choices=["threaded", "async"], default=None,
        help="HTTP front-end: 'async' (one event loop; cache hits and "
             "refusals never leave it, cold queries run in an executor) or "
             "'threaded' (one thread per connection; cold queries run "
             "inline). Default async, or the config file's choice.",
    )
    serve.add_argument("--host", default=None, help="Bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (0 picks a free ephemeral port, printed on startup; "
             "default 8080)",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="Service seed: answers become deterministic per query, "
             "independent of worker count",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="Engine-pool workers for fanning out concurrent distinct queries",
    )
    serve.add_argument(
        "--cache-size", type=int, default=None,
        help="Answer-cache entries (default unbounded; 0 disables caching)",
    )
    serve.add_argument(
        "--max-body", type=int, default=None,
        help="Largest accepted request body in bytes (oversized posts get 413)",
    )
    serve.add_argument(
        "--allow-register", action="store_true",
        help="Accept POST /datasets registrations from clients",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="Suppress per-request access logging"
    )

    compose = subparsers.add_parser(
        "compose",
        help="boot, inspect or tear down a sharded serving tier (router + "
             "shard replicas + budget coordinator) from one [cluster] config",
    )
    compose.add_argument(
        "--config", type=Path, default=None, metavar="FILE",
        help="Serving config with a [cluster] section (required for "
             "--up/--generate)",
    )
    compose.add_argument(
        "--dir", type=Path, default=Path("compose"), metavar="DIR",
        help="Compose directory: generated configs, logs and state.json "
             "(default: ./compose)",
    )
    compose.add_argument(
        "--shards", type=int, default=None,
        help="Override the config's [cluster] shards= replica count",
    )
    action = compose.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--up", action="store_true",
        help="Generate the deployment and boot coordinator, shards and "
             "router; blocks until every process answers, then returns",
    )
    action.add_argument(
        "--down", action="store_true",
        help="Stop every process recorded in DIR/state.json",
    )
    action.add_argument(
        "--ps", action="store_true",
        help="Report the composed processes and their liveness",
    )
    action.add_argument(
        "--generate", action="store_true",
        help="Only write the per-shard configs and router plan into DIR",
    )

    client = subparsers.add_parser(
        "query", help="send one query to a running 'repro serve' instance"
    )
    client.add_argument(
        "kind",
        metavar="KIND",
        help="Statistic to request. The server's registry is authoritative "
             "(an unknown kind gets a structured 400 listing valid kinds); "
             f"this build registers: {', '.join(registered_kinds())}",
    )
    client.add_argument("--url", required=True, help="Service base URL")
    client.add_argument("--dataset", required=True, help="Registered dataset name")
    client.add_argument("--epsilon", type=float, default=1.0, help="Privacy budget")
    client.add_argument("--beta", type=float, default=1.0 / 3.0, help="Failure probability")
    client.add_argument(
        "--levels", type=float, nargs="+", default=None,
        help="Quantile levels (quantile queries only)",
    )
    client.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="Kind-specific parameter (repeatable), e.g. --param radius=1e6 "
             "for baseline.* kinds; values parse as JSON, falling back to text",
    )
    client.add_argument("--analyst", default=None, help="Analyst name for sub-budgets")
    client.add_argument(
        "--timeout", type=float, default=30.0, help="HTTP timeout in seconds"
    )

    subparsers.add_parser(
        "kinds",
        help="list every registered estimator kind with its parameter schema",
    )

    admin = subparsers.add_parser(
        "admin",
        help="drive the live control plane of a running 'repro serve' instance",
    )
    admin.add_argument(
        "action", choices=("reload", "drain", "stats"),
        help="reload: hot-apply a config; drain: stop admitting on a dataset; "
             "stats: print the control-plane state document",
    )
    admin.add_argument("--url", required=True, help="Service base URL")
    admin.add_argument(
        "--token", default=None,
        help="Admin shared secret (default: the REPRO_ADMIN_TOKEN environment "
             "variable)",
    )
    admin.add_argument(
        "--config", type=Path, default=None, metavar="FILE",
        help="reload only: send this .toml/.json config inline instead of "
             "re-reading the file the server booted from",
    )
    admin.add_argument(
        "--dataset", default=None, help="drain only: the dataset to drain"
    )
    admin.add_argument(
        "--undrain", action="store_true",
        help="drain only: clear the drain flag instead of setting it",
    )
    admin.add_argument(
        "--timeout", type=float, default=30.0, help="HTTP timeout in seconds"
    )

    trace = subparsers.add_parser(
        "trace",
        help="inspect recorded query traces on a running 'repro serve' "
             "instance (GET /debug/traces)",
    )
    trace.add_argument(
        "trace_id", nargs="?", default=None, metavar="TRACE_ID",
        help="Trace id to fetch (omit to list the most recent traces)",
    )
    trace.add_argument("--url", required=True, help="Service base URL")
    trace.add_argument(
        "--timeout", type=float, default=30.0, help="HTTP timeout in seconds"
    )

    audit = subparsers.add_parser(
        "audit",
        help="verify or replay a service's hash-chained privacy audit log",
    )
    audit.add_argument(
        "action", choices=("verify", "spend"),
        help="verify: recompute the hash chain and fail on any tamper; "
             "spend: replay committed epsilon per budget owner, analyst and "
             "kind",
    )
    audit.add_argument("log", type=Path, help="Path to the audit JSONL file")
    audit.add_argument(
        "--url", default=None,
        help="spend only: cross-check the replayed owner totals against the "
             "live service's GET /datasets ledgers (exact float equality; "
             "the log must cover the server's current lifetime)",
    )
    audit.add_argument(
        "--timeout", type=float, default=30.0, help="HTTP timeout in seconds"
    )

    lint = subparsers.add_parser(
        "lint",
        help="statically check sources against the repro invariants "
             "(REP001..REP008: determinism, lock discipline, budget pairing)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="Files or directories to lint (default: ./src if present, else .)",
    )
    lint.add_argument(
        "--select", nargs="+", default=None, metavar="RULE",
        help="Only run these rule ids (e.g. --select REP001 REP002)",
    )
    lint.add_argument(
        "--ignore", nargs="+", default=None, metavar="RULE",
        help="Skip these rule ids",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="Report format on stdout (default: text)",
    )
    lint.add_argument(
        "--report", type=Path, default=None, metavar="FILE",
        help="Also write the JSON report document to FILE",
    )
    return parser


def load_column(csv_path: Path, column: str) -> np.ndarray:
    """Load one numeric column from a CSV file (by header name or 0-based index)."""
    if not csv_path.exists():
        raise DomainError(f"input file not found: {csv_path}")
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row]
    if not rows:
        raise DomainError(f"input file is empty: {csv_path}")

    header = rows[0]
    if column in header:
        index = header.index(column)
        body = rows[1:]
    else:
        try:
            index = int(column)
        except ValueError as exc:
            raise DomainError(
                f"column {column!r} is neither a header of {header} nor an integer index"
            ) from exc
        # Heuristic: if the first row's target cell is not numeric, treat it as a header.
        body = rows
        try:
            float(rows[0][index])
        except (ValueError, IndexError):
            body = rows[1:]

    values: List[float] = []
    for row_number, row in enumerate(body, start=1):
        if index >= len(row) or row[index].strip() == "":
            continue
        try:
            values.append(float(row[index]))
        except ValueError as exc:
            raise DomainError(
                f"non-numeric value {row[index]!r} in row {row_number} of column {column!r}"
            ) from exc
    if not values:
        raise DomainError(f"no numeric values found in column {column!r}")
    return np.asarray(values, dtype=float)


#: Scalar single-release closures by command, used by the --trials mode.
_SCALAR_ESTIMATORS = {
    "mean": lambda data, epsilon, beta, gen, ledger: estimate_mean(
        data, epsilon, beta, gen, ledger=ledger
    ).mean,
    "variance": lambda data, epsilon, beta, gen, ledger: estimate_variance(
        data, epsilon, beta, gen, ledger=ledger
    ).variance,
    "iqr": lambda data, epsilon, beta, gen, ledger: estimate_iqr(
        data, epsilon, beta, gen, ledger=ledger
    ).iqr,
}


def _run_trial_mode(args: argparse.Namespace, data: np.ndarray) -> None:
    """Repeat the release ``args.trials`` times via the engine and print the spread."""
    if args.command not in _SCALAR_ESTIMATORS:
        raise DomainError(
            f"--trials > 1 supports the scalar commands {sorted(_SCALAR_ESTIMATORS)}; "
            f"run {args.command!r} once per invocation instead"
        )
    trial = _release_trial_fn(args.command, data, args.epsilon, args.beta)
    batch = run_batch(trial, args.trials, args.seed, workers=args.workers)
    successes = [entry for entry in batch.results if entry[0] is not None]
    n_failures = batch.trials - len(successes)
    if not successes:
        first_error = next(entry[3] for entry in batch.results if entry[3])
        raise DomainError(f"all {batch.trials} trials failed (first: {first_error})")
    estimates = np.asarray([estimate for estimate, _, _, _ in successes])
    total_spent = sum(spend for _, spend, _, _ in batch.results)
    q10, q50, q90 = np.quantile(estimates, [0.1, 0.5, 0.9])
    print(f"dp_{args.command}_median={q50:.6g}")
    print(f"dp_{args.command}_q10={q10:.6g}")
    print(f"dp_{args.command}_q90={q90:.6g}")
    print(f"trials={batch.trials}")
    print(f"workers={batch.workers}")
    print(f"failures={n_failures}")
    print(f"records={data.size}")
    print(f"epsilon_per_trial={successes[0][1]:.6g}")
    print(f"epsilon_total_spent={total_spent:.6g}")
    if args.show_ledger:
        print("per-trial ledger (first successful trial):")
        print(successes[0][2])


def _release_trial_fn(command: str, data: np.ndarray, epsilon: float, beta: float):
    """Build the engine trial body for one scalar release command.

    The three classic commands keep their direct closures (so tests can
    monkeypatch :data:`_SCALAR_ESTIMATORS`); every other command resolves
    through the estimator-spec registry, which is how ``suite --kinds``
    releases any parameter-free registered kind.  Failures (e.g. a rejected
    propose-test-release check) are captured inside the trial so the ledger
    survives: estimators charge the budget as they go, so a failed trial has
    still spent epsilon and must be counted.
    """
    if command in _SCALAR_ESTIMATORS:
        release = _SCALAR_ESTIMATORS[command]

        def run_release(generator, ledger):
            return float(release(data, epsilon, beta, generator, ledger))

    else:
        spec = get_estimator(command)
        params = spec.validate_params({})

        def run_release(generator, ledger):
            return float(
                spec.run(data, generator, ledger, epsilon=epsilon, beta=beta, **params)
            )

    def trial(index: int, generator: np.random.Generator):
        ledger = PrivacyLedger()
        try:
            estimate = run_release(generator, ledger)
        except MechanismError as exc:
            return None, ledger.total_epsilon, ledger.summary(), str(exc)
        return estimate, ledger.total_epsilon, ledger.summary(), None

    return trial


def _print_spread(command: str, batch) -> float:
    """Print the estimate spread of one release batch; returns epsilon spent."""
    successes = [entry for entry in batch.results if entry[0] is not None]
    n_failures = batch.trials - len(successes)
    if not successes:
        first_error = next(entry[3] for entry in batch.results if entry[3])
        raise DomainError(f"all {batch.trials} trials failed (first: {first_error})")
    estimates = np.asarray([estimate for estimate, _, _, _ in successes])
    total_spent = sum(spend for _, spend, _, _ in batch.results)
    if batch.trials == 1:
        print(f"dp_{command}={estimates[0]:.6g}")
    else:
        q10, q50, q90 = np.quantile(estimates, [0.1, 0.5, 0.9])
        print(f"dp_{command}_median={q50:.6g}")
        print(f"dp_{command}_q10={q10:.6g}")
        print(f"dp_{command}_q90={q90:.6g}")
        print(f"dp_{command}_failures={n_failures}")
    return total_spent


def _run_suite(args: argparse.Namespace, data: np.ndarray) -> None:
    """Release a set of statistics as one grid over a shared worker pool.

    The default set is the classic mean/variance/IQR trio; ``--kinds``
    substitutes any parameter-free scalar kinds from the estimator registry
    (e.g. ``baseline.dwork_lei_iqr``).  Commands run in sorted order so the
    per-statistic seeds — and therefore the printed estimates — are
    independent of the order the kinds were named in.
    """
    commands = sorted(set(args.kinds)) if args.kinds else sorted(_SCALAR_ESTIMATORS)
    # One independent child seed per statistic, derived up-front: the suite is
    # reproducible for a fixed --seed no matter how cells are scheduled.
    cell_seeds = spawn_seeds(args.seed, len(commands))
    cells = [
        GridCell(
            trial_fn=_release_trial_fn(command, data, args.epsilon, args.beta),
            trials=args.trials,
            rng=int(seed),
            key=command,
        )
        for command, seed in zip(commands, cell_seeds)
    ]
    grid = run_grid(cells, workers=args.grid_workers)
    total_spent = 0.0
    for command in commands:
        total_spent += _print_spread(command, grid.by_key(command))
    print(f"records={data.size}")
    print(f"trials_per_statistic={args.trials}")
    print(f"grid_workers={grid.workers}")
    print(f"epsilon_total_spent={total_spent:.6g}")
    if args.show_ledger:
        first = next(
            entry for entry in grid.by_key(commands[0]).results if entry[0] is not None
        )
        print(f"per-trial ledger (first successful {commands[0]} trial):")
        print(first[2])


def _parse_analyst_budgets(entries: Sequence[str]) -> dict:
    budgets = {}
    for entry in entries:
        name, sep, eps = entry.partition("=")
        if not sep or not name:
            raise DomainError(
                f"--analyst-budget expects NAME=EPS, got {entry!r}"
            )
        try:
            budgets[name] = float(eps)
        except ValueError as exc:
            raise DomainError(
                f"--analyst-budget {entry!r}: {eps!r} is not a number"
            ) from exc
    return budgets


def _serve_config_from_args(args: argparse.Namespace):
    """Resolve the effective :class:`ServingConfig` from --config and/or flags.

    A config file supplies the deployment; explicit CLI flags override its
    service-level settings.  Without --config, the legacy single-CSV-column
    arguments build an equivalent one-dataset config.
    """
    import dataclasses

    from repro.service import DatasetConfig, ServingConfig, load_serving_config

    if args.config is not None:
        if args.csv_path is not None or args.column is not None \
                or args.dataset is not None or args.budget is not None \
                or args.analyst_budget:
            raise DomainError(
                "--config describes the datasets itself; drop the CSV path, "
                "--column, --dataset, --budget and --analyst-budget arguments"
            )
        config = load_serving_config(args.config)
    else:
        if args.csv_path is None or args.column is None or args.budget is None:
            raise DomainError(
                "serve needs either --config FILE, or a CSV path with "
                "--column and --budget"
            )
        analyst_budgets = _parse_analyst_budgets(args.analyst_budget)
        config = ServingConfig(
            datasets=(
                DatasetConfig(
                    name=args.dataset or str(args.column),
                    source=str(args.csv_path),
                    column=str(args.column),
                    budget=args.budget,
                    analyst_budgets=analyst_budgets or None,
                ),
            ),
        )

    overrides = {}
    for name in ("host", "port", "seed", "workers", "cache_size",
                 "frontend", "max_body"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.allow_register:
        overrides["allow_register"] = True
    if args.quiet:
        overrides["quiet"] = True
    config = dataclasses.replace(config, **overrides)
    if config.workers < 1:
        raise DomainError(f"--workers must be at least 1, got {config.workers}")
    if config.cache_size is not None and config.cache_size < 0:
        raise DomainError(f"--cache-size must be >= 0, got {config.cache_size}")
    if config.max_body is not None and config.max_body < 1:
        raise DomainError(f"--max-body must be at least 1, got {config.max_body}")
    return config


def _describe_service(service, config) -> None:
    for dataset in service.registry:
        budget = (
            f"joint budget group {dataset.group!r} "
            f"(epsilon={dataset.budget.capacity:g})"
            if dataset.group is not None
            else f"total budget epsilon={dataset.budget.capacity:g}"
        )
        print(
            f"dataset {dataset.name!r}: {dataset.records} records, {budget}, "
            f"workers={config.workers}, seed={config.seed}",
            flush=True,
        )


def _run_serve(args: argparse.Namespace) -> int:
    """Start a repro.service HTTP front-end (threaded or async)."""
    from repro.service import build_service, make_server, serve_async

    config = _serve_config_from_args(args)
    with build_service(config) as built:
        service = built.service
        if config.frontend == "async":
            def on_ready(server) -> None:
                host, port = server.server_address
                print(f"repro-service listening on http://{host}:{port}", flush=True)
                print("frontend=async", flush=True)
                _describe_service(service, config)

            try:
                serve_async(
                    service, config.host, config.port,
                    allow_register=config.allow_register, quiet=config.quiet,
                    max_body=config.max_body, on_ready=on_ready,
                    limiter=built.limiter, admin=built.admin,
                )
            except KeyboardInterrupt:
                print("shutting down", flush=True)
            return 0

        server = make_server(
            service, config.host, config.port,
            allow_register=config.allow_register, quiet=config.quiet,
            max_body=config.max_body,
            limiter=built.limiter, admin=built.admin,
        )
        try:
            # Inside the try: a SIGINT right after the ready line is a
            # clean stop, not a traceback.
            host, port = server.server_address[:2]
            print(f"repro-service listening on http://{host}:{port}", flush=True)
            print("frontend=threaded", flush=True)
            _describe_service(service, config)
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", flush=True)
        finally:
            server.server_close()
    return 0


def _run_compose(args: argparse.Namespace) -> int:
    """``repro compose --up/--down/--ps/--generate`` (the sharded tier)."""
    from repro.cluster.compose import compose_down, compose_ps, compose_up, generate_plan

    if args.generate or args.up:
        if args.config is None:
            raise DomainError("compose --up/--generate needs --config FILE")
        if args.generate:
            plan = generate_plan(args.config, args.dir, shards=args.shards)
            print(f"generated {plan.shards} shard config(s) in {plan.directory}")
            print(f"router plan: {plan.router_plan}")
            return 0
        handle = compose_up(args.config, args.dir, shards=args.shards)
        print(f"cluster up: {handle.plan.shards} shard(s)")
        print(f"router: {handle.router_url}")
        print(
            f"coordinator: {handle.plan.host}:{handle.plan.coordinator_port}"
        )
        for index in range(handle.plan.shards):
            print(f"shard{index}: {handle.shard_url(index)}")
        print(f"state: {handle.plan.directory / 'state.json'}")
        return 0
    if args.down:
        stopped = compose_down(args.dir)
        if stopped == 0:
            print(f"nothing to stop: no state.json under {args.dir}")
        else:
            print(f"stopped {stopped} process(es)")
        return 0
    report = compose_ps(args.dir)
    if not report:
        print(f"no composed cluster under {args.dir}")
        return 1
    exit_code = 0
    for entry in report:
        status = "up" if entry["alive"] else "dead"
        if not entry["alive"]:
            exit_code = 1
        address = entry["address"] or "-"
        print(f"{entry['name']:<12} pid={entry['pid']:<8} {address:<22} {status}")
    return exit_code


def _parse_query_params(entries: Sequence[str]) -> dict:
    """Decode repeatable ``--param NAME=VALUE`` flags into a params object.

    Values parse as JSON (numbers, booleans, arrays like ``[0.5,0.9]``) with
    a plain-string fallback; the server's spec validation has the final say.
    """
    params: dict = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name:
            raise DomainError(f"--param expects NAME=VALUE, got {entry!r}")
        try:
            params[name] = json.loads(value)
        except json.JSONDecodeError:
            params[name] = value
    return params


def _run_kinds(args: argparse.Namespace) -> int:
    """Print the estimator-spec registry catalogue (the GET /kinds document)."""
    for spec in iter_estimators():
        shape = "scalar" if spec.scalar else "vector"
        print(f"{spec.name}")
        print(f"  description: {spec.description}")
        print(
            f"  reservation_factor={spec.reservation:g} "
            f"min_records={spec.min_records} shape={shape} "
            f"dimension={spec.dimension}"
        )
        for param in spec.params:
            need = "required" if param.required else (
                f"default={param.default!r}" if param.default is not None
                else "optional"
            )
            print(f"  param {param.name} ({param.type}, {need})")
    return 0


def _error_code(document: dict) -> Optional[str]:
    """The machine-readable error code from a v1 (or legacy) document."""
    error = document.get("error")
    if isinstance(error, dict):
        return error.get("code")
    return error  # legacy pre-v1 servers carried the code as a string


def _run_query_client(args: argparse.Namespace) -> int:
    """POST one query to a running service and print the structured answer."""
    from repro.client import ServiceClient

    params = _parse_query_params(args.param)
    if args.levels:
        # Canonical spelling: quantile levels are a kind parameter.
        params.setdefault("levels", args.levels)
    client = ServiceClient(args.url, timeout=args.timeout, analyst=args.analyst)
    _, document = client.query(
        args.dataset, args.kind,
        epsilon=args.epsilon, beta=args.beta, params=params or None,
    )

    status = document.get("status", "error")
    print(f"status={status}")
    if status == "ok":
        value = document.get("value")
        if isinstance(value, list):
            print(f"value={','.join(f'{v:.6g}' for v in value)}")
        else:
            print(f"value={value:.6g}")
        print(f"cached={'yes' if document.get('cached') else 'no'}")
    if document.get("error"):
        error = document["error"]
        print(f"error={_error_code(document)}")
        message = (
            error.get("message", "") if isinstance(error, dict)
            else document.get("message", "")
        )
        print(f"message={message}")
    if document.get("epsilon_charged") is not None:
        print(f"epsilon_charged={document['epsilon_charged']:.6g}")
    if document.get("remaining") is not None:
        print(f"remaining={document['remaining']:.6g}")
    return {"ok": 0, "refused": 3, "failed": 4}.get(status, 2)


def _run_admin(args: argparse.Namespace) -> int:
    """``repro admin reload|drain|stats`` against a running service."""
    import os

    from repro.client import ServiceClient

    token = args.token or os.environ.get("REPRO_ADMIN_TOKEN")
    client = ServiceClient(args.url, timeout=args.timeout, token=token)
    if args.action == "stats":
        code, document = client.admin_state()
    elif args.action == "reload":
        config = None
        if args.config is not None:
            from repro.service.config import load_serving_config  # validates early

            load_serving_config(args.config)
            suffix = args.config.suffix.lower()
            if suffix == ".json":
                config = json.loads(args.config.read_text())
            else:
                raise DomainError(
                    "--config reloads send the document inline and need JSON; "
                    "for TOML configs let the server re-read its booted file "
                    "(run reload without --config)"
                )
        code, document = client.admin_reload(config)
    else:  # drain
        if not args.dataset:
            raise DomainError("admin drain needs --dataset NAME")
        code, document = client.admin_drain(args.dataset, not args.undrain)
    print(json.dumps(document, indent=2, sort_keys=True))
    if code >= 400:
        print(f"error: HTTP {code}: {_error_code(document)}", file=sys.stderr)
        return 2
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace [TRACE_ID]``: list or fetch recorded query traces."""
    from repro.client import ServiceClient

    client = ServiceClient(args.url, timeout=args.timeout)
    if args.trace_id is None:
        code, document = client.traces()
        if code != 200:
            print(f"error: HTTP {code}: {_error_code(document)}", file=sys.stderr)
            return 2
        tracing = document.get("tracing", {})
        print(
            f"ring={tracing.get('ring')} held={tracing.get('held')} "
            f"recorded={tracing.get('recorded')} "
            f"slow_queries={tracing.get('slow_queries')}"
        )
        for entry in document.get("traces", ()):
            meta = entry.get("meta", {})
            label = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
            print(
                f"{entry['trace']}  {entry.get('duration_ms', 0.0):.3f}ms  "
                f"spans={len(entry.get('spans', ()))}  {label}"
            )
        return 0
    code, document = client.trace(args.trace_id)
    if code != 200:
        print(f"error: HTTP {code}: {_error_code(document)}", file=sys.stderr)
        return 2
    print(json.dumps(document.get("trace", document), indent=2, sort_keys=True))
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    """``repro audit verify|spend``: exit 0 clean, 1 tamper/mismatch."""
    from repro.obs import AuditChainError, replay_spend, verify_audit_log

    if args.action == "verify":
        try:
            count, final_hash = verify_audit_log(args.log)
        except AuditChainError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"records={count}")
        print(f"final_hash={final_hash}")
        print("chain=ok")
        return 0

    # spend — replay walks the same verified chain, so tampering fails here too.
    try:
        report = replay_spend(args.log)
    except AuditChainError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"records={report['records']}")
    for owner in sorted(report["owners"]):
        entry = report["owners"][owner]
        print(f"{owner} spent={entry['spent']!r}")
        for analyst in sorted(entry["analysts"]):
            print(f"{owner} analyst={analyst} spent={entry['analysts'][analyst]!r}")
    for kind in sorted(report["kinds"]):
        print(f"kind={kind} spent={report['kinds'][kind]!r}")
    if args.url is None:
        return 0

    from repro.client import ServiceClient

    stats = ServiceClient(args.url, timeout=args.timeout).stats()
    live = {}
    for dataset in stats.get("datasets", ()):
        if dataset.get("group") is None:
            live[f"dataset:{dataset['name']}"] = dataset["budget"]["spent"]
    for name, group in stats.get("groups", {}).items():
        live[f"group:{name}"] = group["budget"]["spent"]
    mismatches = []
    for owner in sorted(report["owners"]):
        replayed = report["owners"][owner]["spent"]
        if owner not in live:
            mismatches.append(
                f"{owner}: replay spent={replayed!r} but the live service "
                "has no such budget"
            )
        elif live[owner] != replayed:
            mismatches.append(
                f"{owner}: replay={replayed!r} live={live[owner]!r}"
            )
    for owner in sorted(live):
        if owner not in report["owners"] and live[owner] > 0.0:
            mismatches.append(
                f"{owner}: live spent={live[owner]!r} absent from the audit log"
            )
    if mismatches:
        for line in mismatches:
            print(f"mismatch: {line}", file=sys.stderr)
        return 1
    print(f"cross_check=ok owners={len(report['owners'])}")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    """``repro lint``: exit 0 clean, 1 findings, 2 internal/usage error."""
    from repro.lint import lint_paths, render_json_text, render_text

    paths = list(args.paths)
    if not paths:
        default = Path("src")
        paths = [default] if default.is_dir() else [Path(".")]
    result = lint_paths(paths, select=args.select, ignore=args.ignore)
    if args.format == "json":
        print(render_json_text(result))
    else:
        print(render_text(result))
    if args.report is not None:
        args.report.write_text(render_json_text(result) + "\n", encoding="utf-8")
    return 0 if result.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "compose":
            return _run_compose(args)
        if args.command == "query":
            return _run_query_client(args)
        if args.command == "admin":
            return _run_admin(args)
        if args.command == "trace":
            return _run_trace(args)
        if args.command == "audit":
            return _run_audit(args)
        if args.command == "kinds":
            return _run_kinds(args)
        if args.command == "lint":
            return _run_lint(args)
        data = load_column(args.csv_path, args.column)
        if args.trials < 1:
            raise DomainError(f"--trials must be at least 1, got {args.trials}")
        if args.workers < 1:
            raise DomainError(f"--workers must be at least 1, got {args.workers}")
        if args.command == "suite":
            if args.grid_workers < 1:
                raise DomainError(
                    f"--grid-workers must be at least 1, got {args.grid_workers}"
                )
            if args.workers != 1:
                raise DomainError(
                    "suite parallelises across statistics, not within one "
                    "release; use --grid-workers instead of --workers"
                )
            _run_suite(args, data)
            return 0
        if args.trials > 1:
            _run_trial_mode(args, data)
            return 0
        rng = np.random.default_rng(args.seed)
        ledger = PrivacyLedger()

        if args.command == "mean":
            result = estimate_mean(data, args.epsilon, args.beta, rng, ledger=ledger)
            print(f"dp_mean={result.mean:.6g}")
        elif args.command == "variance":
            result = estimate_variance(data, args.epsilon, args.beta, rng, ledger=ledger)
            print(f"dp_variance={result.variance:.6g}")
        elif args.command == "iqr":
            result = estimate_iqr(data, args.epsilon, args.beta, rng, ledger=ledger)
            print(f"dp_iqr={result.iqr:.6g}")
        elif args.command == "quantiles":
            result = estimate_quantiles(
                data, args.levels, args.epsilon, args.beta, rng, ledger=ledger
            )
            for level, value in result.as_dict().items():
                print(f"dp_q{level:g}={value:.6g}")
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")

        print(f"records={data.size}")
        print(f"epsilon_spent={ledger.total_epsilon:.6g}")
        if args.show_ledger:
            print(ledger.summary())
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Unreadable files, refused binds, broken pipes: one clean line, no
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""In-memory span recorder wrapped around the public functions of each layer.

The traced benchmark run puts this directory on ``PYTHONPATH`` with
``PERFBENCH_TRACE_DIR`` set, so ``sitecustomize`` calls :func:`install` in
every system process: the ``repro serve`` server, compose's coordinator,
shards and router, and (through fork) every engine pool worker.  The
benchmark's own process calls :func:`install` directly for the in-process
``paper_trials`` workload.

A span is ``(span_id, parent_id, name, start_ns, end_ns, thread_id, extra)``
with ``parent_id`` the innermost enclosing wrapped call on the same thread
(0 for a top-level call).  Clocks are ``perf_counter_ns`` (CLOCK_MONOTONIC),
so spans from different processes share one time axis with the client's.
Spans stay in memory and are pickled to ``spans-<pid>.pkl`` when the process
exits: at interpreter exit for servers (SIGTERM is turned into
``KeyboardInterrupt`` so their clean shutdown path runs), and when the worker
loop returns for pool workers, which leave through ``os._exit``.

No ``src/`` file is modified: wrappers replace class attributes and every
module-level binding of a wrapped function.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import os
import pickle
import signal
import sys
import threading
import time

ENV_DIR = "PERFBENCH_TRACE_DIR"

_SPANS: list = []
_IDS = itertools.count(1)
_LOCAL = threading.local()
_STATE = {"installed": False, "dumped": False, "role": "main"}

#: Modules a ``python -m`` launch would execute as ``__main__`` — a second
#: copy of their classes that the wrappers would miss.  They are imported as
#: ordinary modules instead and their ``main()`` is called.
_MAIN_MODULES = ("repro.cluster.router", "repro.cluster.coordinator")


def spans() -> list:
    """The spans recorded in this process so far."""
    return _SPANS


def _record(fn, name, extra_fn=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        parent = stack[-1] if stack else 0
        span_id = next(_IDS)
        stack.append(span_id)
        label = name(args, kwargs) if callable(name) else name
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            extra = extra_fn(args, kwargs, result) if extra_fn is not None else None
            _SPANS.append(
                (span_id, parent, label, start, end, threading.get_ident(), extra)
            )

    wrapper.__perfbench_original__ = fn
    return wrapper


def _patch_method(owner, attr, name, extra_fn=None):
    original = owner.__dict__[attr]
    if hasattr(original, "__perfbench_original__"):
        return
    setattr(owner, attr, _record(original, name, extra_fn))


def _patch_function(module, attr, name, extra_fn=None):
    """Wrap ``module.attr`` and every ``repro`` module binding of it."""
    original = getattr(module, attr)
    if hasattr(original, "__perfbench_original__"):
        return
    wrapped = _record(original, name, extra_fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _kind_name(args, kwargs):
    return f"estimators.{args[0].name}"


def _rpc_name(args, kwargs):
    return f"rpc.{args[1] if len(args) > 1 else kwargs.get('op')}"


def _hit(args, kwargs, result):
    return result is not None


def _cells(args, kwargs, result):
    cells = args[0] if args else kwargs.get("cells", ())
    return len(cells)


def _codec_tag(args, kwargs, result):
    return None if result is None else result[0]


def _worker_main_wrapper(original):
    @functools.wraps(original)
    def worker_main(*args, **kwargs):
        # A forked worker inherits a copy of the parent's spans; it reports
        # only its own, and dumps before multiprocessing's os._exit.
        _SPANS.clear()
        _STATE["role"] = "worker"
        _STATE["dumped"] = False
        try:
            return original(*args, **kwargs)
        finally:
            dump()

    worker_main.__perfbench_original__ = original
    return worker_main


def _wrap_layers() -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    modules = [
        "repro.service", "repro.service.wire", "repro.service.qos",
        "repro.service.executor", "repro.service.cache", "repro.service.registry",
        "repro.obs.trace", "repro.obs.audit", "repro.estimators.spec",
        "repro.mechanisms.exponential", "repro.domain.discretization",
        "repro.engine", "repro.engine.grid", "repro.engine.core",
        "repro.engine.pool", "repro.engine._closures", "repro.analysis.trials",
        "repro.distributions.continuous", "repro.cluster.router",
        "repro.cluster.rpc", "repro.cluster.coordinator", "repro.cli",
    ]
    mod = {name: importlib.import_module(name) for name in modules}

    wire = mod["repro.service.wire"]
    _patch_function(wire, "parse_request", "wire.parse_request")
    _patch_function(wire, "answer_document", "wire.answer_document")
    _patch_method(mod["repro.service.qos"].RateLimiter, "check", "qos.check")
    _patch_method(mod["repro.obs.trace"].TraceRecorder, "finish", "trace.finish")

    service = mod["repro.service.executor"].QueryService
    for attr in ("submit", "submit_many", "peek"):
        _patch_method(service, attr, f"executor.{attr}")
    cache = mod["repro.service.cache"].AnswerCache
    _patch_method(cache, "get", "cache.lookup", _hit)
    _patch_method(cache, "peek", "cache.lookup", _hit)

    registry = mod["repro.service.registry"]
    for manager in (registry.BudgetManager, registry.RemoteBudgetManager):
        _patch_method(manager, "reserve", "registry.reserve")
        _patch_method(manager, "commit", "registry.commit")
    _patch_method(mod["repro.obs.audit"].AuditLog, "record", "audit.record")

    _patch_method(mod["repro.estimators.spec"].EstimatorSpec, "run", _kind_name)
    exponential = mod["repro.mechanisms.exponential"]
    _patch_function(exponential, "build_quantile_intervals", "mechanisms.quantile_intervals")
    _patch_function(exponential, "inverse_sensitivity_quantile", "mechanisms.quantile_intervals")
    _patch_method(mod["repro.domain.discretization"].Grid, "to_grid", "domain.to_grid")

    _patch_function(mod["repro.engine.grid"], "run_grid", "engine.run_grid", _cells)
    _patch_function(mod["repro.engine.core"], "execute_span", "engine.execute_span")
    _patch_function(mod["repro.engine._closures"], "encode_callable", "engine.encode", _codec_tag)
    pool = mod["repro.engine.pool"]
    pool._worker_main = _worker_main_wrapper(pool._worker_main)

    continuous = mod["repro.distributions.continuous"]
    for cls in (continuous.Gaussian, continuous.StudentT):
        _patch_method(cls, "sample", "trials.datagen")

    _patch_method(mod["repro.cluster.router"].ShardEndpoint, "request", "router.forward")
    _patch_method(mod["repro.cluster.rpc"].CoordinatorClient, "call", _rpc_name)
    _patch_method(
        mod["repro.cluster.coordinator"].BudgetCoordinator, "handle", "coordinator.handle"
    )


def dump() -> None:
    """Write this process's spans to the trace directory (once)."""
    directory = os.environ.get(ENV_DIR)
    if not directory or _STATE["dumped"]:
        return
    _STATE["dumped"] = True
    document = {"pid": os.getpid(), "role": _STATE["role"], "spans": list(_SPANS)}
    path = os.path.join(directory, f"spans-{os.getpid()}.pkl")
    with open(path + ".tmp", "wb") as handle:
        pickle.dump(document, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(path + ".tmp", path)


def _terminate(signum, frame):
    raise KeyboardInterrupt


def _run_module_as_main_wrapper(original):
    def run_module_as_main(mod_name, alter_argv=True):
        if mod_name not in _MAIN_MODULES:
            return original(mod_name, alter_argv)
        module = importlib.import_module(mod_name)
        if alter_argv:
            sys.argv[0] = module.__file__
        raise SystemExit(module.main())

    return run_module_as_main


def install(*, server: bool) -> None:
    """Wrap every layer in this process; ``server`` also arms the exit dump."""
    if _STATE["installed"]:
        return
    _STATE["installed"] = True
    _wrap_layers()
    if server:
        import runpy

        runpy._run_module_as_main = _run_module_as_main_wrapper(
            runpy._run_module_as_main
        )
        signal.signal(signal.SIGTERM, _terminate)
        atexit.register(dump)

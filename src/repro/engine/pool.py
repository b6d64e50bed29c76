"""Persistent worker pool: fork once, serve many batch/grid calls.

:class:`EnginePool` owns a set of forked worker processes and a duplex pipe to
each.  Unlike the original per-call ``multiprocessing.Pool`` (which handed the
trial function to workers through module-level globals guarded by a lock),
the pool carries *no module-level state*: each call ships its trial functions
to the workers explicitly through the pipes via the
:mod:`repro.engine._closures` codec, so independent pools — including pools
driven from different threads — never serialise on each other.

Execution model
---------------
* Workers are forked lazily on the first parallel call and reused for every
  subsequent :func:`~repro.engine.run_batch` / :func:`~repro.engine.run_grid`
  served by the pool, eliminating per-call fork/teardown.
* Work is dispatched at *span* granularity (a contiguous range of trials of
  one cell, carrying its pre-derived seeds).  Scheduling is dynamic — a span
  goes to whichever worker frees up first — but results are keyed by span, so
  scheduling can never affect them.
* A trial function the codec cannot ship (or that a worker fails to decode)
  falls back to in-process execution of its spans; by the determinism
  contract the results are identical either way.
* Exceptions raised inside a worker are sent back and re-raised in the
  parent; the worker itself survives, so one failing cell does not poison the
  pool for later calls.  Only a worker *dying* (segfault, kill) raises
  :class:`~repro.exceptions.EngineError` and closes the pool.
* On platforms without ``fork``, or inside a daemonic worker (nested engine
  use), :attr:`EnginePool.parallel` is false and callers degrade to the
  identical serial path.
* Workers keep freed memory resident (glibc's ``mallopt``; a no-op where it
  is missing), so a trial's O(n) temporaries are not page-faulted in afresh
  on every call.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine._closures import CallableTransferError, decode_callable, encode_callable
from repro.exceptions import DomainError, EngineError

__all__ = ["EnginePool", "Span"]


@dataclass(frozen=True)
class Span:
    """A contiguous range of trials of one job (cell), with its seeds.

    ``job`` indexes into the ``fns``/``catches`` sequences handed to
    :meth:`EnginePool.execute_spans`; ``start`` is the absolute index of the
    first trial in the span; ``seeds[k]`` seeds trial ``start + k``.
    """

    job: int
    start: int
    seeds: np.ndarray


#: Worker-side sentinel: the payload for this function token failed to decode.
_DECODE_FAILED = object()


def _transferable(exc: BaseException) -> BaseException:
    """Return ``exc`` if it can cross the pipe, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return EngineError(f"worker raised unpicklable {type(exc).__name__}: {exc}")


#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Allocations up to 32 MiB (glibc's ceiling for this knob on 64-bit) come
#: from the heap, and up to 128 MiB of free heap top stays mapped.
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 128 << 20


def _retain_heap() -> None:
    """Keep freed memory resident in this process (no-op without ``mallopt``).

    By default glibc serves each large array from a fresh mapping, unmaps it
    on free and trims the heap top, so a worker page-faults its trial's
    temporaries in again on every call.  Fixed thresholds turn off that
    dynamic behaviour.  Worker processes only: a parent with a retained heap
    at fork time would count it again in every child's peak RSS.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _worker_main(conn: Connection) -> None:
    """Worker loop: cache decoded trial functions, execute spans on demand."""
    from repro.engine.core import execute_span

    _retain_heap()

    fns: Dict[int, Any] = {}
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        tag = message[0]
        if tag == "exit":
            break
        if tag == "fn":
            _, token, payload = message
            try:
                fns[token] = decode_callable(payload)
            except Exception:
                fns[token] = _DECODE_FAILED
            continue
        if tag == "drop":
            # End of one batch/grid call: evict its functions (and their
            # captured closure state) so a long-lived pool does not
            # accumulate every trial function it ever served.
            for token in message[1]:
                fns.pop(token, None)
            continue
        # ("span", span_id, fn_token, catch, start, seeds)
        _, span_id, fn_token, catch, start, seeds = message
        fn = fns.get(fn_token, _DECODE_FAILED)
        if fn is _DECODE_FAILED:
            conn.send(("fnerr", span_id))
            continue
        try:
            output = execute_span(fn, catch, start, seeds)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            conn.send(("err", span_id, _transferable(exc)))
            continue
        try:
            conn.send(("ok", span_id, output))
        except Exception as exc:  # unpicklable trial results
            conn.send(
                ("err", span_id, EngineError(f"trial results are not picklable: {exc}"))
            )
    conn.close()


@dataclass
class _WorkerHandle:
    process: mp.process.BaseProcess
    conn: Connection
    sent_tokens: set


class EnginePool:
    """A reusable fork pool serving many ``run_batch``/``run_grid`` calls.

    Use as a context manager::

        with EnginePool(workers=8) as pool:
            for cell in cells:
                batch = run_batch(cell.fn, cell.trials, cell.seed, pool=pool)

    Workers fork on the first parallel call (so a ``workers=1`` pool never
    forks at all) and live until :meth:`close` / context exit.  Results are
    bit-for-bit identical to the serial path for any worker count; the pool
    affects wall-clock time only.

    The pool is thread-safe in the conservative sense: concurrent calls on
    the *same* pool are serialised on an internal per-pool lock.  Threads that
    need true concurrency should use one pool each — pools share no state, so
    (unlike the old module-level worker-function handoff) independent pools
    never serialise on each other.
    """

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise DomainError(f"workers must be at least 1, got {workers}")
        self._size = int(workers)
        self._handles: List[_WorkerHandle] = []
        self._started = False
        self._closed = False
        self._lock = threading.Lock()
        self._tokens = itertools.count()

    # -- introspection -----------------------------------------------------
    @property
    def workers(self) -> int:
        """Configured worker count (processes exist only after first use)."""
        return self._size

    @property
    def closed(self) -> bool:
        # Monitoring read: a stale False only delays the EngineError to the
        # next execute_spans call, which checks again under the lock.
        return self._closed  # repro: ignore[REP002] lock-free monitoring read

    @property
    def parallel(self) -> bool:
        """Whether this pool can actually fan out on this platform/process."""
        if self._size <= 1 or self._closed:  # repro: ignore[REP002] monitoring read
            return False
        if "fork" not in mp.get_all_start_methods():
            return False
        # Daemonic workers may not create child processes; nested engine use
        # degrades to the (identical) serial path instead of crashing.
        return not mp.current_process().daemon

    @property
    def alive_workers(self) -> int:
        """Number of currently-running worker processes (0 before first use)."""
        # Monitoring read; list() snapshots against concurrent close().
        handles = list(self._handles)  # repro: ignore[REP002] monitoring read
        return sum(1 for handle in handles if handle.process.is_alive())

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the workers down; idempotent. The pool cannot be reused after."""
        with self._lock:
            self._lock_free_close()

    def __del__(self):  # pragma: no cover - backstop for forgotten close()
        try:
            if self._started and not self._closed:
                self.close()
        except Exception:
            pass

    def _ensure_started(self) -> None:
        """Fork the workers on first use. Caller must hold ``self._lock``."""
        if self._closed:
            raise EngineError("EnginePool is closed and cannot run further work")
        if self._started:
            return
        context = mp.get_context("fork")
        for _ in range(self._size):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            process.start()
            child_conn.close()
            self._handles.append(
                _WorkerHandle(process=process, conn=parent_conn, sent_tokens=set())
            )
        self._started = True

    # -- execution ---------------------------------------------------------
    def execute_spans(
        self,
        fns: Sequence[Any],
        catches: Sequence[Tuple[type, ...]],
        spans: Sequence[Span],
        fail_fast: bool = False,
        profile: Optional[List[Tuple[int, float]]] = None,
    ) -> Tuple[List[Optional[tuple]], Dict[int, BaseException]]:
        """Execute ``spans`` across the workers; the pool's low-level entry.

        ``fns[j]``/``catches[j]`` describe job ``j`` (one batch or grid cell);
        each span names its job.  Returns ``(outputs, errors)`` where
        ``outputs[i]`` is the ``(results, indices, failures)`` triple of
        ``spans[i]`` (``None`` if it errored) and ``errors`` maps span index
        to the exception raised inside it.  Callers decide whether an error
        propagates (``run_batch``) or becomes a structured cell failure
        (``run_grid``); the pool itself survives either way.

        With ``fail_fast=True`` (used when the caller will propagate any
        error anyway) the first span error stops dispatch of still-queued
        spans; in-flight spans drain normally.  When several spans fail
        concurrently, which one's exception the caller ends up raising can
        then depend on scheduling — acceptable, since every span result was
        about to be discarded.

        ``profile`` is the observability hook: when a list is given, one
        ``(job, seconds)`` pair is appended per span that produced a result
        or error — wall clock around the in-process ``execute_span`` call
        for parent-fallback spans, dispatch-to-result time for spans run in
        a worker.  The hook is timing-only; it is never consulted for
        scheduling and cannot change any output.
        """
        with self._lock:
            return self._execute_spans_locked(fns, catches, spans, fail_fast, profile)

    def _execute_spans_locked(self, fns, catches, spans, fail_fast=False, profile=None):
        """Dispatch-loop body. Caller must hold ``self._lock``."""
        from repro.engine.core import execute_span

        outputs: List[Optional[tuple]] = [None] * len(spans)
        errors: Dict[int, BaseException] = {}

        payloads: List[Optional[tuple]] = []
        for fn in fns:
            try:
                payloads.append(encode_callable(fn))
            except CallableTransferError:
                payloads.append(None)

        def run_in_parent(span_id: int) -> None:
            span = spans[span_id]
            started = time.perf_counter()
            try:
                outputs[span_id] = execute_span(
                    fns[span.job], catches[span.job], span.start, span.seeds
                )
            except BaseException as exc:  # noqa: BLE001 - recorded per span
                errors[span_id] = exc
            if profile is not None:
                profile.append((span.job, time.perf_counter() - started))

        # Spans whose function cannot cross the pipe run in-process up front
        # (identical results by the determinism contract).
        parallel_ids = deque()
        for span_id, span in enumerate(spans):
            if payloads[span.job] is None:
                run_in_parent(span_id)
            else:
                parallel_ids.append(span_id)

        if not parallel_ids:
            return outputs, errors
        self._ensure_started()

        tokens = [next(self._tokens) for _ in fns]
        idle = deque(self._handles)
        inflight: Dict[Connection, Tuple[_WorkerHandle, int]] = {}

        def dispatch(handle: _WorkerHandle, span_id: int) -> None:
            span = spans[span_id]
            token = tokens[span.job]
            if token not in handle.sent_tokens:
                handle.conn.send(("fn", token, payloads[span.job]))
                handle.sent_tokens.add(token)
            handle.conn.send(
                ("span", span_id, token, catches[span.job], span.start, span.seeds)
            )
            inflight[handle.conn] = (handle, span_id, time.perf_counter())

        try:
            while parallel_ids or inflight:
                if fail_fast and errors:
                    parallel_ids.clear()
                while parallel_ids and idle:
                    dispatch(idle.popleft(), parallel_ids.popleft())
                if not inflight:
                    continue
                for conn in wait(list(inflight)):
                    handle, span_id, dispatched = inflight.pop(conn)
                    try:
                        message = conn.recv()
                    except EOFError:
                        raise EngineError(
                            f"engine worker pid={handle.process.pid} died while "
                            f"executing trials {spans[span_id].start}.."
                        ) from None
                    tag = message[0]
                    if tag in ("ok", "err") and profile is not None:
                        # fnerr spans re-run in the parent, which times itself.
                        profile.append(
                            (spans[span_id].job, time.perf_counter() - dispatched)
                        )
                    if tag == "ok":
                        outputs[message[1]] = message[2]
                    elif tag == "err":
                        errors[message[1]] = message[2]
                    elif tag == "fnerr":
                        # Worker could not decode the function (e.g. module not
                        # importable there): run this job's spans in-process.
                        failed_job = spans[message[1]].job
                        payloads[failed_job] = None
                        run_in_parent(message[1])
                        requeue = [s for s in parallel_ids if spans[s].job == failed_job]
                        for span_id_r in requeue:
                            parallel_ids.remove(span_id_r)
                            run_in_parent(span_id_r)
                    else:  # pragma: no cover - protocol violation
                        raise EngineError(f"unexpected worker message tag {tag!r}")
                    idle.append(handle)
        except (BrokenPipeError, OSError) as exc:
            # Structural failure: the pool is no longer trustworthy.
            self._lock_free_close()
            raise EngineError(f"engine worker pipe failed: {exc}") from exc
        except BaseException:
            # Any exception escaping the dispatch loop (EngineError, an
            # interrupt while blocked in wait()/recv, a signal-based timeout)
            # leaves in-flight results undrained in the worker pipes; a later
            # call on this pool would read them and misattribute results by a
            # stale span id.  Fence the pool: close it so reuse raises
            # EngineError instead of silently corrupting results.
            self._lock_free_close()
            raise
        # Release this call's function payloads in every worker that received
        # any (tokens are never reused, so this cannot race a later call).
        dropped = set(tokens)
        for handle in self._handles:
            sent = handle.sent_tokens & dropped
            if not sent:
                continue
            try:
                handle.conn.send(("drop", sorted(sent)))
            except (BrokenPipeError, OSError):  # pragma: no cover - torn down
                pass
            handle.sent_tokens -= sent
        return outputs, errors

    def _lock_free_close(self) -> None:
        """Shutdown body; callers must hold (or be) ``self._lock``."""
        self._closed = True
        handles, self._handles = self._handles, []
        self._started = False
        for handle in handles:
            try:
                handle.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
            handle.conn.close()
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=1.0)

    # -- convenience -------------------------------------------------------
    def run_batch(self, trial_fn, trials, rng=None, **kwargs):
        """:func:`repro.engine.run_batch` bound to this pool."""
        from repro.engine.core import run_batch

        return run_batch(trial_fn, trials, rng, pool=self, **kwargs)

    def run_grid(self, cells, **kwargs):
        """:func:`repro.engine.run_grid` bound to this pool."""
        from repro.engine.grid import run_grid

        return run_grid(cells, pool=self, **kwargs)

    def __repr__(self) -> str:
        # repr is a lock-free monitoring read by design.
        state = "closed" if self._closed else ("started" if self._started else "lazy")  # repro: ignore[REP002]
        return f"EnginePool(workers={self._size}, {state})"


def default_chunk_size(trials: int, workers: int, jobs: int = 1) -> int:
    """Default span length: roughly four spans per worker across all jobs."""
    target_spans = max(1, workers * 4)
    per_job = max(1, round(target_spans / max(1, jobs)))
    return max(1, math.ceil(trials / per_job))

"""End-to-end query tracing: spans per pipeline stage, a bounded ring, slow-query log.

One :class:`Trace` follows one HTTP request through the service: the
front-end mints (or accepts) the trace id and opens the trace, each pipeline
stage records a :class:`Span` with monotonic timings, and the front-end
finishes the trace into the :class:`TraceRecorder` ring once the response is
serialised.  The recorder is the only shared structure and takes one short
lock per finished trace; an individual ``Trace`` is touched by exactly one
thread at a time (the async front-end hands the same trace from the event
loop to the executor thread *sequentially*), so span recording itself is
lock-free.

Under the sharded tier the same id spans processes: the cluster router
opens its own trace for ``POST /query`` and forwards the id to the owning
shard via ``X-Repro-Trace-Id``, where the shard's front-end accepts it and
records its admission/execution spans against it — so one trace id queried
at ``/debug/traces/<id>`` on router and shard tells the whole cross-process
story (routing spans here, execution spans there).

Finishing a trace stores the :class:`Trace` in the ring; ``get`` / ``recent``
render its document on read (the same document, frozen at finish).

Determinism: trace ids are drawn from :func:`os.urandom` — deliberately
outside the seeded ``repro._rng`` tree — and nothing in this module ever
feeds a seed, so answers with tracing enabled are bit-for-bit identical to
tracing disabled (pinned in ``tests/test_obs_service.py``).  One 4 KiB read
serves 512 ids; a forked child drops the pool it inherited.
"""

from __future__ import annotations

import os
import sys
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from threading import Lock
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import DomainError

__all__ = ["Span", "Trace", "TraceRecorder", "mint_trace_id", "span"]

#: Characters accepted in a client-supplied ``X-Repro-Trace-Id`` header.
_ID_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")
_MAX_ID_LENGTH = 64


#: Pooled OS entropy: one 4 KiB ``getrandom`` serves 512 ids.
_id_lock, _id_digits, _id_at = Lock(), "", 0


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace id from pooled OS entropy (never the seeded RNG)."""
    global _id_digits, _id_at
    with _id_lock:
        if _id_at == len(_id_digits):
            _id_digits, _id_at = os.urandom(4096).hex(), 0
        _id_at += 16
        return _id_digits[_id_at - 16 : _id_at]


def _reset_id_pool() -> None:
    """Drop the inherited pool (and lock) in a forked child: its ids are its own."""
    global _id_lock, _id_digits, _id_at
    _id_lock, _id_digits, _id_at = Lock(), "", 0


os.register_at_fork(after_in_child=_reset_id_pool)


def accept_trace_id(candidate: Optional[str]) -> str:
    """The client-supplied trace id if well-formed, else a freshly minted one.

    A header is honoured only when it is 1..64 chars drawn from
    ``[A-Za-z0-9._-]`` — anything else (empty, oversized, control bytes) is
    replaced rather than rejected, so a bad header can never fail a request.
    """
    if candidate:
        candidate = candidate.strip()
        if 0 < len(candidate) <= _MAX_ID_LENGTH and set(candidate) <= _ID_CHARS:
            return candidate
    return mint_trace_id()


@dataclass(slots=True)
class Span:
    """One timed pipeline stage inside a trace.

    ``start`` is milliseconds since the trace opened; ``duration`` is
    milliseconds of wall clock (monotonic).  ``detail`` carries small
    JSON-safe stage annotations (batch size, per-cell engine timings, ...).
    """

    name: str
    start: float
    duration: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "name": self.name,
            "start_ms": round(self.start, 3),
            "duration_ms": round(self.duration, 3),
        }
        if self.detail:
            document["detail"] = self.detail
        return document


class _Timed:
    """:meth:`Trace.span`: yields ``detail``, records a :class:`Span` on any exit."""

    __slots__ = ("_trace", "_name", "_detail", "_start")

    def __init__(self, trace: "Trace", name: str, detail: Dict[str, Any]):
        self._trace, self._name, self._detail = trace, name, detail

    def __enter__(self) -> Dict[str, Any]:
        self._start = self._trace._clock()
        return self._detail

    def __exit__(self, *exc_info: Any) -> None:
        trace, start = self._trace, self._start
        duration = (trace._clock() - start) * 1000.0
        trace.spans.append(
            Span(self._name, (start - trace._opened) * 1000.0, duration, self._detail)
        )


#: ``span(None, ...)``: no clock, no record; annotations land in a dict no
#: one reads.
_UNTIMED = nullcontext({})


class Trace:
    """The mutable per-request span collector.

    Created by :meth:`TraceRecorder.start`, threaded by keyword through
    ``peek``/``submit``/``submit_many``, and handed back to
    :meth:`TraceRecorder.finish`.  Single-threaded by construction (one
    request, one stage at a time), so there is no lock on the hot path.
    """

    __slots__ = ("trace_id", "meta", "spans", "_opened", "_clock", "_finished", "_held", "_time")

    def __init__(
        self,
        trace_id: str,
        *,
        clock: Callable[[], float] = time.monotonic,
        **meta: Any,
    ):
        self.trace_id = trace_id
        self.meta: Dict[str, Any] = meta
        self.spans: List[Span] = []
        self._clock = clock
        self._opened = clock()
        self._finished: Optional[float] = None

    def annotate(self, **meta: Any) -> None:
        """Attach request metadata (dataset, kind, status, ...) to the trace."""
        self.meta.update(meta)

    def span(self, name: str, **detail: Any) -> _Timed:
        """Time the ``with`` block as a :class:`Span`; it gets the mutable ``detail``."""
        return _Timed(self, name, detail)

    def finish(self) -> float:
        """Close the trace; returns its duration in ms, latched with spans and time."""
        if self._finished is None:
            self._finished = (self._clock() - self._opened) * 1000.0
            self._held, self._time = len(self.spans), time.time()
        return self._finished

    def to_json(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "trace": self.trace_id,
            "duration_ms": round(self.finish(), 3),
            "spans": [record.to_json() for record in self.spans[: self._held]],
        }
        if self.meta:
            document["meta"] = self.meta
        document["time"] = self._time
        return document


def span(trace: Optional[Trace], name: str, **detail: Any) -> Any:
    """``trace.span(name)`` that degrades to a no-op when tracing is off.

    With ``trace=None`` it returns one shared no-op: no clock read, no span.
    """
    if trace is None:
        return _UNTIMED
    return _Timed(trace, name, detail)


class TraceRecorder:
    """Bounded in-memory ring of finished traces + the slow-query log.

    ``ring`` caps how many finished traces are kept (oldest evicted first);
    ``slow_query_ms`` — when not ``None`` — emits one line per trace whose
    total duration meets the threshold.  Both are hot-swappable via
    :meth:`configure` (an ``/admin/reload`` with a changed ``[observability]``
    section lands here).  Thread-safe under one short lock; recording a
    finished trace is a dict insert, and its document is rendered when read.
    """

    def __init__(
        self,
        ring: int = 256,
        *,
        slow_query_ms: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        emit: Optional[Callable[[str], None]] = None,
    ):
        if ring < 1:
            raise DomainError(f"trace ring size must be >= 1, got {ring}")
        if slow_query_ms is not None and slow_query_ms < 0:
            raise DomainError(
                f"slow_query_ms must be None or >= 0, got {slow_query_ms}"
            )
        self._lock = Lock()
        self._ring = ring
        self._slow_query_ms = slow_query_ms
        self._clock = clock
        self._emit = emit if emit is not None else self._default_emit
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        self._recorded = 0
        self._slow = 0

    @staticmethod
    def _default_emit(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    def start(self, trace_id: Optional[str] = None, **meta: Any) -> Trace:
        """Open a trace under ``trace_id`` (header value) or a minted id."""
        return Trace(accept_trace_id(trace_id), clock=self._clock, **meta)

    def finish(self, trace: Trace) -> None:
        """Record a finished trace into the ring; emit the slow-query line."""
        duration = trace.finish()
        slow_line = None
        with self._lock:
            self._recorded += 1
            self._traces[trace.trace_id] = trace
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self._ring:
                self._traces.popitem(last=False)
            if self._slow_query_ms is not None and duration >= self._slow_query_ms:
                self._slow += 1
                slow_line = (
                    f"slow query trace={trace.trace_id} "
                    f"duration_ms={duration:.3f} "
                    f"threshold_ms={self._slow_query_ms:g} "
                    + " ".join(f"{k}={v}" for k, v in sorted(trace.meta.items()))
                ).rstrip()
        if slow_line is not None:
            # Emitting outside the lock: a slow stderr must not stall tracing.
            self._emit(slow_line)

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The finished trace document for ``trace_id``, or ``None``."""
        with self._lock:
            trace = self._traces.get(trace_id)
        return None if trace is None else trace.to_json()

    def recent(self, limit: int = 50) -> List[Dict[str, Any]]:
        """The most recently finished traces, newest first."""
        with self._lock:
            traces = list(islice(reversed(self._traces.values()), max(limit, 0)))
        return [trace.to_json() for trace in traces]

    def configure(
        self,
        *,
        ring: Optional[int] = None,
        slow_query_ms: Optional[float] = None,
        slow_query_enabled: Optional[bool] = None,
    ) -> None:
        """Hot-swap the ring size and/or slow-query threshold (admin reload).

        ``slow_query_ms`` replaces the threshold when given;
        ``slow_query_enabled=False`` switches the slow-query log off
        (``None`` threshold) regardless.
        """
        if ring is not None and ring < 1:
            raise DomainError(f"trace ring size must be >= 1, got {ring}")
        if slow_query_ms is not None and slow_query_ms < 0:
            raise DomainError(
                f"slow_query_ms must be None or >= 0, got {slow_query_ms}"
            )
        with self._lock:
            if ring is not None:
                self._ring = ring
                while len(self._traces) > self._ring:
                    self._traces.popitem(last=False)
            if slow_query_ms is not None:
                self._slow_query_ms = slow_query_ms
            if slow_query_enabled is False:
                self._slow_query_ms = None

    def stats(self) -> Dict[str, Any]:
        """JSON-safe counters for ``GET /debug/traces`` and ``stats()``."""
        with self._lock:
            return {
                "ring": self._ring,
                "held": len(self._traces),
                "recorded": self._recorded,
                "slow_query_ms": self._slow_query_ms,
                "slow_queries": self._slow,
            }

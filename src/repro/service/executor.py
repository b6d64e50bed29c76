"""The query service: admission, coalescing, and engine-pool fan-out.

:class:`QueryService` composes the registry (budget admission), the answer
cache (zero-spend repeats), and :mod:`repro.engine` (parallel execution)
into a thread-safe in-process serving layer:

Request life cycle
------------------
1. **Cache** — an identical earlier release (canonical-key match) is served
   from the :class:`~repro.service.cache.AnswerCache` at **zero marginal
   epsilon** (DP post-processing).
2. **Validate** — the query is type/parameter/shape-checked against the
   dataset (:func:`repro.service.queries.plan_query`) before any budget is
   touched; malformed requests become structured ``invalid`` answers.
3. **Admit** — the dataset's :class:`~repro.service.registry.BudgetManager`
   atomically reserves the query's worst-case spend; refusal is a structured
   ``refused`` answer with the ledger untouched.
4. **Execute** — admitted queries of one :meth:`QueryService.submit_many`
   batch become :class:`~repro.engine.GridCell`\\ s fanned out over the
   shared :class:`~repro.engine.EnginePool` (serial in-process when no pool
   is configured).  Same-kind queries on one dataset are grouped into a
   single vectorized cell when the kind's spec is ``batchable`` (per-query
   cells otherwise), so a sketch-backed dataset serves its cached sketches
   to the whole group in one pass.  Registered-with-``share=True`` datasets
   — sketches included — cross to the workers as
   :class:`~repro.engine.SharedArray` segment names, not copies.
5. **Commit** — the epsilon the estimator's own ledger actually recorded is
   committed against the budget (reservations are exact upper bounds), and
   successful answers enter the cache.

Determinism contract (service extension)
----------------------------------------
Under a fixed ``seed``, each query's generator is derived from
``(service seed, canonical query key)`` — never from submission order,
thread timing, or the worker count.  Combined with the engine's grid
contract this makes every answer **bit-for-bit identical for ``pool=None``,
``workers=1`` and ``workers=N``**, across batching layouts, for the life of
the service.  With ``seed=None`` every fresh release draws new entropy.

Concurrency contract
--------------------
Steps 1–3 are one admission decision, shared by :meth:`QueryService.peek`
and :meth:`QueryService.submit` and made under one lock: cache lookup,
draining check, validation, the check for an identical query in flight,
then the reservation plus a claim on the canonical key (``peek`` instead
probes the budget and reserves nothing).  Answers and audit records are
built after the lock is dropped.  An owner caches its ``ok`` answer
*before* it releases its claim (publish before release), so a decision
finds the answer, the claim, or neither — never the gap between them, in
which a miss and a claim taken after the owner finished would charge one
release twice.

So concurrent *identical* queries from different threads are charged once:
one computes, the rest wait and share the released answer (again zero
marginal epsilon), and ``peek`` never refuses a query whose answer is
cached.  Concurrent *distinct* queries proceed independently; admission
order decides who gets the last of a nearly-exhausted budget.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._rng import spawn_seeds
from repro.accounting import PrivacyLedger
from repro.engine import GridCell, run_grid
from repro.exceptions import (
    BudgetExceededError,
    CoordinatorUnavailableError,
    InsufficientDataError,
    ReproError,
)
from repro.obs import AuditLog, Trace, TraceRecorder
from repro.obs import span as obs_span
from repro.service.cache import AnswerCache, CacheStats
from repro.service.metrics import LatencyRecorder
from repro.service.queries import InvalidQueryError, Query, plan_query
from repro.service.registry import (
    DatasetRegistry,
    RegisteredDataset,
    UnknownDatasetError,
)

__all__ = ["QueryRequest", "QueryAnswer", "QueryService"]


@dataclass(frozen=True)
class QueryRequest:
    """One submission: a query addressed to a named dataset by an analyst."""

    dataset: str
    query: Query
    analyst: Optional[str] = None


@dataclass(frozen=True)
class QueryAnswer:
    """Structured outcome of one submission.

    ``status`` is one of:

    * ``"ok"`` — ``value`` holds the release (float, or tuple of floats for
      quantile / multivariate answers);
    * ``"refused"`` — the budget admission failed; the ledger is unchanged
      and ``epsilon_charged`` is 0;
    * ``"invalid"`` — the request never reached admission (unknown dataset,
      malformed parameters, shape mismatch); nothing was spent;
    * ``"failed"`` — the estimator aborted mid-release (e.g. a rejected
      propose-test-release check).  The partial spend its ledger recorded
      *was* committed, exactly as a real deployment must account it.
    """

    dataset: str
    kind: str
    status: str
    key: str
    value: Optional[Union[float, Tuple[float, ...]]] = None
    epsilon_charged: float = 0.0
    cached: bool = False
    coalesced: bool = False
    error: Optional[str] = None
    message: Optional[str] = None
    remaining: Optional[float] = None
    query: Optional[Query] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> Dict[str, Any]:
        value: Any = self.value
        if isinstance(value, tuple):
            value = list(value)
        payload: Dict[str, Any] = {
            "dataset": self.dataset,
            "kind": self.kind,
            "status": self.status,
            "key": self.key,
            "value": value,
            "epsilon_charged": self.epsilon_charged,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "remaining": self.remaining,
        }
        if self.error is not None:
            payload["error"] = self.error
            payload["message"] = self.message
        if self.query is not None:
            payload["query"] = self.query.to_json()
        return payload


def _outcome(answer: QueryAnswer) -> str:
    """The metrics outcome label: status refined by the zero-cost paths."""
    if answer.cached:
        return "cached"
    if answer.coalesced:
        return "coalesced"
    return answer.status


class _QueryTrial:
    """Engine trial body for one admitted query (picklable by plain pickle).

    Holds only the dataset handle and the frozen :class:`Query`; the
    estimator spec is looked up by kind in the worker's own registry
    (import-populated), so nothing closure-like has to cross the pipe.  A
    ``share=True`` dataset crosses as its shared-memory segment name.
    """

    def __init__(self, data: Any, query: Query):
        self.data = data
        self.query = query

    def __call__(self, index: int, generator: np.random.Generator):
        from repro.estimators import UnknownKindError, get_estimator

        ledger = PrivacyLedger()
        try:
            spec = get_estimator(self.query.kind)
        except UnknownKindError as exc:
            # The parent validated this kind, so reaching here means it was
            # registered at runtime *after* this worker forked (workers only
            # see import-time registrations).  Zero spend: nothing ran.
            return (
                "failed",
                None,
                0.0,
                f"{exc} in this worker process: kinds registered after the "
                "engine pool forked are invisible to its workers — register "
                "custom kinds at import time or before the pool's first "
                "parallel call",
            )
        try:
            value = spec.run(
                self.data,
                generator,
                ledger,
                epsilon=self.query.epsilon,
                beta=self.query.beta,
                **self.query.params_dict,
            )
        except ReproError as exc:
            # MechanismError (e.g. a rejected propose-test-release check) is
            # the expected case; any other library error is likewise a failed
            # release whose partial spend must still be committed — never an
            # exception that aborts the sibling queries of the batch.
            return ("failed", None, ledger.total_epsilon, str(exc))
        return ("ok", value, ledger.total_epsilon, None)


class _QueryGroupTrial:
    """Engine trial body for a group of same-kind queries on one dataset.

    ``submit_many`` groups admitted queries that share ``(dataset, kind)`` —
    when the kind's spec is ``batchable`` — into one grid cell: the spec is
    resolved once and every member runs against the same dataset object in
    one pass, so a sketch-backed dataset crosses the pipe (or the serial
    path) once per group and its cached sketches serve the whole group.
    Kinds registered with ``batchable=False`` keep per-query cells.

    Determinism is preserved exactly: each member's generator is derived
    from its own ``(service seed, canonical key)`` base seed precisely the
    way the engine seeds a singleton one-trial cell —
    ``default_rng(int(spawn_seeds(base_seed, 1)[0]))`` — so every answer is
    bit-for-bit identical to what per-query cells produce, under any
    grouping layout and any worker count.
    """

    def __init__(self, data: Any, kind: str, members: List[Tuple[Query, int]]):
        self.data = data
        self.kind = kind
        self.members = members  # [(query, base seed), ...] in admission order

    def __call__(self, index: int, generator: np.random.Generator):
        from repro.estimators import UnknownKindError, get_estimator

        try:
            spec = get_estimator(self.kind)
        except UnknownKindError as exc:
            message = (
                f"{exc} in this worker process: kinds registered after the "
                "engine pool forked are invisible to its workers — register "
                "custom kinds at import time or before the pool's first "
                "parallel call"
            )
            return [("failed", None, 0.0, message) for _ in self.members]
        outcomes = []
        for query, base_seed in self.members:
            ledger = PrivacyLedger()
            member_rng = np.random.default_rng(int(spawn_seeds(base_seed, 1)[0]))
            try:
                value = spec.run(
                    self.data,
                    member_rng,
                    ledger,
                    epsilon=query.epsilon,
                    beta=query.beta,
                    **query.params_dict,
                )
            except ReproError as exc:
                outcomes.append(("failed", None, ledger.total_epsilon, str(exc)))
            else:
                outcomes.append(("ok", value, ledger.total_epsilon, None))
        return outcomes


class _InFlight:
    """Rendezvous for threads coalescing on one canonical key.

    The owner sets ``answer`` (left ``None`` if it raised first) before it
    sets ``event``.
    """

    __slots__ = ("event", "answer")

    def __init__(self):
        self.event = threading.Event()
        self.answer: Optional[QueryAnswer] = None


@dataclass
class _Admitted:
    """Book-keeping for one admitted (reserved, not yet executed) request."""

    request: QueryRequest
    dataset: RegisteredDataset
    key: str
    reservation: Any
    flight: _InFlight
    #: The reservation has met its commit (or an outage that keeps it held).
    settled: bool = False


class QueryService:
    """Thread-safe private-query service over a :class:`DatasetRegistry`.

    Parameters
    ----------
    registry:
        The datasets to serve (a fresh empty registry by default; use
        :meth:`register` to populate).
    pool:
        An open :class:`~repro.engine.EnginePool` for fan-out of concurrent
        distinct queries.  ``None`` executes serially in-process — the
        bit-for-bit identical fallback.
    seed:
        Service seed for deterministic answers (see the module docstring).
        ``None`` draws fresh entropy per release.
    cache:
        Answer cache; defaults to an unbounded :class:`AnswerCache`.  Pass
        ``AnswerCache(maxsize=0)`` to disable caching.
    metrics:
        A :class:`~repro.service.metrics.LatencyRecorder` collecting
        per-kind/per-outcome latency histograms (a fresh one by default);
        every answered request is observed exactly once — by the submit
        path, or by :meth:`peek` when it resolves the request itself.
    tracer:
        A :class:`~repro.obs.TraceRecorder` collecting per-request traces
        (``None`` disables tracing).  Front-ends read it off the service,
        open a :class:`~repro.obs.Trace` per request and thread it through
        ``peek``/``submit`` via the keyword-only ``trace`` parameter; the
        executor only records spans into whatever trace it is handed.
    audit:
        An :class:`~repro.obs.AuditLog`; when set, every privacy-relevant
        decision (reserve, commit, cancel, refusal, zero-spend cache hit)
        appends one hash-chained record.  ``None`` disables auditing.
    """

    def __init__(
        self,
        registry: Optional[DatasetRegistry] = None,
        *,
        pool=None,
        seed: Optional[int] = None,
        cache: Optional[AnswerCache] = None,
        metrics: Optional[LatencyRecorder] = None,
        tracer: Optional[TraceRecorder] = None,
        audit: Optional[AuditLog] = None,
    ):
        self.registry = registry if registry is not None else DatasetRegistry()
        self._pool = pool
        self._seed = None if seed is None else int(seed)
        self._cache = cache if cache is not None else AnswerCache()
        self.metrics = metrics if metrics is not None else LatencyRecorder()
        self.tracer = tracer
        self.audit = audit
        self._coalesce_lock = threading.Lock()
        self._inflight: Dict[str, _InFlight] = {}
        self._spend_lock = threading.Lock()
        self._kind_spend: Dict[str, float] = {}
        self._analyst_spend: Dict[str, float] = {}

    # -- registration convenience ------------------------------------------
    def register(self, name: str, data: Any, total_budget: float, **kwargs):
        """Register a dataset (see :meth:`DatasetRegistry.register`)."""
        return self.registry.register(name, data, total_budget, **kwargs)

    @property
    def cache(self) -> AnswerCache:
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def seed(self) -> Optional[int]:
        return self._seed

    @property
    def workers(self) -> int:
        return self._pool.workers if self._pool is not None else 1

    # -- seeding -----------------------------------------------------------
    def _query_seed(self, key: str) -> int:
        """Derive the query's base seed from ``(service seed, canonical key)``.

        The canonical key is hashed (SHA-256) into seed-sequence entropy, so
        the seed depends on *what* is asked, never on when, by whom, or on
        which worker it runs — the root of the service determinism contract.
        """
        if self._seed is None:
            # Unseeded service: fresh entropy per query, drawn through the
            # sanctioned repro._rng seeding site rather than a bare
            # SeedSequence() so every entropy draw has one auditable origin.
            return int(spawn_seeds(None, 1)[0])
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        entropy = (self._seed & (2**64 - 1),) + struct.unpack(">8I", digest)
        sequence = np.random.SeedSequence(entropy)
        return int(sequence.generate_state(1, np.uint64)[0] % (2**63 - 1))

    # -- observability -----------------------------------------------------
    def _audit_event(self, event: str, **fields: Any) -> None:
        """Append one privacy event to the audit log; no-op when unconfigured.

        Emission sites sit in the same thread as (and immediately after) the
        budget mutation they describe, so replaying the log reproduces the
        ledger totals in commit order (``repro audit spend``).
        """
        if self.audit is not None:
            self.audit.record(event, **fields)

    def _record_spend(self, kind: str, analyst: Optional[str], actual: float) -> None:
        """Fold one committed spend into the service-wide gauges.

        Mirrors :meth:`BudgetManager.commit`: only a strictly positive
        measured spend counts, so these counters stay bit-for-bit consistent
        with the ledgers they summarise (per kind, and per analyst across
        every dataset — the ledger itself only tracks capped analysts).
        """
        if not actual > 0.0:
            return
        with self._spend_lock:
            self._kind_spend[kind] = self._kind_spend.get(kind, 0.0) + actual
            if analyst is not None:
                self._analyst_spend[analyst] = (
                    self._analyst_spend.get(analyst, 0.0) + actual
                )

    # -- submission API ----------------------------------------------------
    def submit(
        self, request: QueryRequest, *, trace: Optional[Trace] = None
    ) -> QueryAnswer:
        """Answer one request, coalescing with concurrent identical requests."""
        return self._submit_batch([request], trace=trace)[0]

    def submit_many(
        self, requests: Sequence[QueryRequest], *, trace: Optional[Trace] = None
    ) -> List[QueryAnswer]:
        """Answer a batch, fanning distinct queries across the engine pool.

        Intra-batch duplicates are computed once and shared, and both the
        single and batch paths coalesce with identical queries already in
        flight on other threads; answers come back in submission order.
        Admitted same-kind queries on one dataset execute as one grouped
        cell (unless the kind opts out via ``batchable=False``) with
        per-query generators still derived from ``(seed, canonical key)`` —
        grouping never changes an answer.
        """
        return self._submit_batch(list(requests), trace=trace)

    def query(
        self,
        dataset: str,
        kind: str,
        epsilon: float,
        *,
        beta: float = 1.0 / 3.0,
        levels: Sequence[float] = (),
        params: Optional[Dict[str, Any]] = None,
        analyst: Optional[str] = None,
    ) -> QueryAnswer:
        """Convenience wrapper building the :class:`QueryRequest` inline."""
        try:
            query = Query(
                kind=kind,
                epsilon=epsilon,
                beta=beta,
                levels=tuple(levels),
                params=tuple((params or {}).items()),
            )
        except ReproError as exc:
            return QueryAnswer(
                dataset=dataset,
                kind=str(kind),
                status="invalid",
                key="",
                error="invalid_query",
                message=str(exc),
            )
        return self.submit(QueryRequest(dataset=dataset, query=query, analyst=analyst))

    def peek(
        self, request: QueryRequest, *, trace: Optional[Trace] = None
    ) -> Optional[QueryAnswer]:
        """Answer ``request`` without executing an estimator, if possible.

        The asyncio front-end serves this on its event loop; ``None`` means
        "dispatch :meth:`submit` to a worker thread".  It is :meth:`submit`'s
        own admission decision (:meth:`_decide`) asked with ``claim=False``:
        the same lookup, checks and in-flight test under the same lock, ending
        in a budget probe that reserves nothing instead of a reservation.  So
        it answers exactly what :meth:`submit` would decide at that instant
        for the outcomes that need no engine work — ``invalid``, a cache hit
        (zero marginal epsilon), a draining refusal, a local ledger's budget
        refusal — and returns ``None`` when a fresh release is needed, an
        identical query is in flight (:meth:`submit` coalesces with it, which
        must win over a refusal), or the ledger is coordinator-owned (its
        probe defers to :meth:`submit`'s reserve, so no round trip runs under
        the admission lock).  A request answered here counts its one
        cache hit or miss; a deferred one is counted by :meth:`submit`.
        """
        started = time.perf_counter()
        with obs_span(trace, "admission_probe") as info:
            decided = self._decide(request, claim=False)
            info["answered"] = isinstance(decided, QueryAnswer)
        if not isinstance(decided, QueryAnswer):
            return None
        self.metrics.observe(
            decided.kind, _outcome(decided), time.perf_counter() - started
        )
        return decided

    # -- internals ---------------------------------------------------------
    def _decide(
        self, request: QueryRequest, *, claim: bool, count_miss: bool = True
    ) -> Union[QueryAnswer, _InFlight, _Admitted, None]:
        """The admission decision: cached, coalesced, refused or admitted.

        :meth:`peek` asks with ``claim=False``; :meth:`submit` and
        :meth:`submit_many` with ``claim=True``.  One hold of
        ``_coalesce_lock`` covers, in order: the cache lookup, the draining
        check, :func:`plan_query`, the in-flight check, and the budget step
        (``reserve`` plus entering the key in ``_inflight`` for a claim, the
        zero-side-effect ``peek`` probe otherwise).  Building answers and
        every audit write (file I/O) happen after the lock is dropped.

        The owner of a claim puts an ``ok`` answer in the cache before
        :meth:`_release` pops its key, so a thread inside this lock finds the
        answer, the flight, or neither — never the gap between them, where a
        miss followed by a claim would charge one release twice.

        Returns a :class:`QueryAnswer` when no estimator has to run; the
        :class:`_InFlight` of an identical claimed query (wait and share its
        answer); an :class:`_Admitted` claim when ``claim`` (the caller must
        execute it, then :meth:`_release` it); or ``None`` (a fresh release
        is needed).  Each request counts one cache hit (by the lookup) or
        one miss (here), except that a ``claim=False`` call deferring to
        :meth:`submit` leaves the miss to it, and ``count_miss=False`` marks
        a waiter deciding again after its owner raised, whose miss is
        already counted.
        """
        try:
            dataset = self.registry.get(request.dataset)
        except UnknownDatasetError as exc:
            return QueryAnswer(
                dataset=request.dataset,
                kind=request.query.kind,
                status="invalid",
                key="",
                error="unknown_dataset",
                message=str(exc),
                query=request.query,
            )
        key = request.query.canonical_key(request.dataset)
        flight = reservation = refusal = outage = invalid = None
        with self._coalesce_lock:
            stored = self._cache.peek(key)
            draining = stored is None and dataset.draining
            if stored is None and not draining:
                try:
                    plan = plan_query(
                        request.query,
                        records=dataset.records,
                        dimension=dataset.dimension,
                        allowed=dataset.kinds,
                    )
                except InvalidQueryError as exc:
                    invalid = ("invalid_query", exc)
                except InsufficientDataError as exc:
                    invalid = ("insufficient_data", exc)
                else:
                    flight = self._inflight.get(key)
                if invalid is None and flight is None:
                    try:
                        if claim:
                            reservation = dataset.budget.reserve(
                                plan.reserve_epsilon, analyst=request.analyst
                            )
                            flight = self._inflight[key] = _InFlight()
                        else:
                            refusal = dataset.budget.peek(
                                plan.reserve_epsilon, analyst=request.analyst
                            )
                    except BudgetExceededError as exc:
                        refusal = str(exc)
                    except CoordinatorUnavailableError as exc:
                        outage = str(exc)
        if stored is not None:
            self._audit_event(
                "cache_hit",
                dataset=request.dataset,
                kind=request.query.kind,
                key=key,
                analyst=request.analyst,
            )
            return QueryAnswer(
                dataset=stored.dataset,
                kind=stored.kind,
                status=stored.status,
                key=stored.key,
                value=stored.value,
                cached=True,
                error=stored.error,
                message=stored.message,
                remaining=dataset.budget.remaining,
                query=stored.query,
            )
        answer: Optional[QueryAnswer] = None
        if draining:
            answer = self._draining(request, key, dataset)
        elif invalid is not None:
            answer = self._invalid(request, key, *invalid)
        elif outage is not None:
            answer = self._unavailable(request, key, outage)
        elif refusal is not None:
            answer = self._refused(request, key, refusal, dataset)
        if count_miss and (claim or answer is not None):
            self._cache.record_miss()
        if answer is not None:
            return answer
        if reservation is None:
            return flight  # wait on it; None: a fresh release is needed
        admitted = _Admitted(request, dataset, key, reservation, flight)
        try:
            self._audit_event(
                "reserve",
                budget=dataset.budget_owner,
                dataset=request.dataset,
                kind=request.query.kind,
                key=key,
                epsilon=reservation.amount,
                analyst=request.analyst,
            )
        except BaseException:
            # Nothing ran: return the budget, then wake any waiter (it
            # decides again), before the error propagates.
            try:
                dataset.budget.cancel(reservation)
            finally:
                self._release([admitted])
            raise
        return admitted

    def _release(self, admitted: Sequence[_Admitted]) -> None:
        """Pop the claimed keys, then wake their waiters.

        Each flight already holds its owner's answer (``None`` if the owner
        raised first; the waiter then decides again), and an ``ok`` answer
        is already cached: publish before release.
        """
        with self._coalesce_lock:
            for entry in admitted:
                self._inflight.pop(entry.key, None)
        for entry in admitted:
            entry.flight.event.set()

    def _settle(self, admitted: Sequence[_Admitted]) -> None:
        """Cancel every reservation that met no commit, then audit each cancel.

        Reached on every exit of a batch: after a clean run nothing is left,
        after a failure (the engine, a commit, an audit write, a later
        admission) each stranded reservation is returned.  All cancels run
        before the first audit write, so an audit log that keeps failing
        cannot leave budget held.
        """
        cancelled = []
        for entry in admitted:
            if entry.settled:
                continue
            try:
                entry.dataset.budget.cancel(entry.reservation)
            except CoordinatorUnavailableError:
                # The coordinator holds the reservation; unreachable means it
                # stays held (conservative: the joint cap can only
                # under-admit, never over-spend).  Keep returning the rest.
                continue
            entry.settled = True
            cancelled.append(entry)
        for entry in cancelled:
            self._audit_event(
                "cancel",
                budget=entry.dataset.budget_owner,
                dataset=entry.request.dataset,
                kind=entry.request.query.kind,
                key=entry.key,
                epsilon=entry.reservation.amount,
                analyst=entry.request.analyst,
            )

    def _invalid(self, request: QueryRequest, key: str, error: str, exc: Exception) -> QueryAnswer:
        return QueryAnswer(
            dataset=request.dataset,
            kind=request.query.kind,
            status="invalid",
            key=key,
            error=error,
            message=str(exc),
            query=request.query,
        )

    def _refused(
        self, request: QueryRequest, key: str, message: str, dataset: RegisteredDataset
    ) -> QueryAnswer:
        """The structured refusal document (one shape for submit and peek).

        Every budget refusal the service serves is built here, so this is
        also the single audit-emission point for the ``refuse`` event.
        """
        self._audit_event(
            "refuse",
            dataset=request.dataset,
            kind=request.query.kind,
            key=key,
            analyst=request.analyst,
            reason="budget_exceeded",
        )
        return QueryAnswer(
            dataset=request.dataset,
            kind=request.query.kind,
            status="refused",
            key=key,
            error="budget_exceeded",
            message=message,
            remaining=dataset.budget.remaining,
            query=request.query,
        )

    def _unavailable(self, request: QueryRequest, key: str, message: str) -> QueryAnswer:
        """A structured coordinator-outage answer: nothing charged or observed.

        A joint budget group whose coordinator is unreachable must not admit
        spend (any shard-local fallback ledger would double-count the group
        cluster-wide), so the query fails cleanly — zero epsilon, ledger
        untouched — and the outage joins the audit chain as a decision.
        """
        self._audit_event(
            "refuse",
            dataset=request.dataset,
            kind=request.query.kind,
            key=key,
            analyst=request.analyst,
            reason="coordinator_unavailable",
        )
        return QueryAnswer(
            dataset=request.dataset,
            kind=request.query.kind,
            status="failed",
            key=key,
            error="coordinator_unavailable",
            message=message,
            query=request.query,
        )

    def _draining(
        self, request: QueryRequest, key: str, dataset: RegisteredDataset
    ) -> QueryAnswer:
        """Refusal for a draining dataset: no fresh admissions, ledger untouched.

        Cache hits are still served (post-processing costs nothing), so this
        is only reached after the cache came up empty — stop-admitting,
        keep-serving semantics for the decommission window.
        """
        self._audit_event(
            "refuse",
            dataset=request.dataset,
            kind=request.query.kind,
            key=key,
            analyst=request.analyst,
            reason="draining",
        )
        return QueryAnswer(
            dataset=request.dataset,
            kind=request.query.kind,
            status="refused",
            key=key,
            error="draining",
            message=(
                f"dataset {request.dataset!r} is draining: new releases are "
                "not admitted (previously released answers are still served "
                "from cache)"
            ),
            remaining=dataset.budget.remaining,
            query=request.query,
        )

    def _submit_batch(
        self, requests: List[QueryRequest], *, trace: Optional[Trace] = None
    ) -> List[QueryAnswer]:
        """Timed wrapper: answer the batch, then record one observation each.

        Batch entries share the batch's wall-clock elapsed time — the latency
        a caller of :meth:`submit_many` actually experienced for each answer.
        """
        started = time.perf_counter()
        answers = self._answer_batch(requests, trace=trace)
        elapsed = time.perf_counter() - started
        for answer in answers:
            self.metrics.observe(answer.kind, _outcome(answer), elapsed)
        return answers

    def _answer_batch(
        self,
        requests: List[QueryRequest],
        *,
        trace: Optional[Trace] = None,
        count_miss: bool = True,
    ) -> List[QueryAnswer]:
        answers: List[Optional[QueryAnswer]] = [None] * len(requests)
        owned: List[Tuple[int, _Admitted]] = []
        waiting: List[Tuple[int, QueryRequest, _InFlight]] = []
        try:
            with obs_span(trace, "admission", requests=len(requests)) as admission_info:
                for position, request in enumerate(requests):
                    decided = self._decide(request, claim=True, count_miss=count_miss)
                    if isinstance(decided, _Admitted):
                        owned.append((position, decided))
                    elif isinstance(decided, _InFlight):
                        # Claimed on another thread, or earlier in this batch
                        # (an intra-batch duplicate).
                        waiting.append((position, request, decided))
                    else:
                        answers[position] = decided
                admission_info["admitted"] = len(owned)
            if owned:
                self._execute_admitted([entry for _, entry in owned], trace=trace)
        finally:
            # Whatever happened, return what was reserved and not committed,
            # then release the keys: a waiter must never block forever.
            try:
                self._settle([entry for _, entry in owned])
            finally:
                self._release([entry for _, entry in owned])
        for position, entry in owned:
            answers[position] = entry.flight.answer

        # Waiters block only after this batch's own flights are released, so
        # two batches waiting on each other's keys cannot deadlock.
        if waiting:
            with obs_span(trace, "coalesce", waiters=len(waiting)):
                for position, request, flight in waiting:
                    flight.event.wait()
                    if flight.answer is not None:
                        # Sharing an already-released answer is post-processing:
                        # zero marginal epsilon for the waiter.
                        answers[position] = dataclasses.replace(
                            flight.answer, coalesced=True, epsilon_charged=0.0
                        )
                    else:
                        # The owner errored before producing an answer; decide
                        # again (possibly surfacing the same error).  The inner
                        # call keeps the retry inside this batch's single
                        # metrics observation, and its lookup uncounted.
                        answers[position] = self._answer_batch(
                            [request], trace=trace, count_miss=False
                        )[0]

        assert all(answer is not None for answer in answers)
        return [answer for answer in answers if answer is not None]

    def _execute_admitted(
        self, admitted: List[_Admitted], *, trace: Optional[Trace] = None
    ) -> None:
        """Run every admitted query, commit its spend, set ``flight.answer``.

        Admitted queries sharing ``(dataset, kind)`` are grouped into one
        :class:`_QueryGroupTrial` cell when the kind is ``batchable`` (one
        vectorized pass per group; see the class docstring for the exact
        per-member seed derivation).  Singleton groups and opted-out kinds
        run as classic per-query :class:`_QueryTrial` cells.
        """
        from repro.estimators import get_estimator

        groups: Dict[Tuple[str, str], List[int]] = {}
        for index, entry in enumerate(admitted):
            group_key = (entry.request.dataset, entry.request.query.kind)
            groups.setdefault(group_key, []).append(index)

        cells: List[GridCell] = []
        # admitted index -> (cell index, member index within a group or None)
        locator: List[Tuple[int, Optional[int]]] = [(0, None)] * len(admitted)
        for (_, kind), members in groups.items():
            # plan_query validated every admitted kind in this process, so
            # the spec lookup cannot fail here (worker-side registry drift is
            # still handled inside the trial bodies).
            if len(members) > 1 and get_estimator(kind).batchable:
                entries = [admitted[i] for i in members]
                cell = GridCell(
                    trial_fn=_QueryGroupTrial(
                        entries[0].dataset.data,
                        kind,
                        [
                            (e.request.query, self._query_seed(e.key))
                            for e in entries
                        ],
                    ),
                    trials=1,
                    rng=0,  # unused: members derive their own generators
                    key=len(cells),
                )
                for member, i in enumerate(members):
                    locator[i] = (len(cells), member)
                cells.append(cell)
            else:
                for i in members:
                    entry = admitted[i]
                    cell = GridCell(
                        trial_fn=_QueryTrial(entry.dataset.data, entry.request.query),
                        trials=1,
                        rng=self._query_seed(entry.key),
                        key=len(cells),
                    )
                    locator[i] = (len(cells), None)
                    cells.append(cell)
        # Per-cell wall-clock only when a trace wants it: the profile hook
        # observes timings without touching scheduling or results.
        profile: Optional[Dict[int, float]] = {} if trace is not None else None
        with obs_span(trace, "engine", cells=len(cells)) as engine_info:
            grid = run_grid(cells, pool=self._pool, workers=1, profile=profile)
            if profile:
                # Group members share their group's wall-clock time.
                engine_info["per_cell_ms"] = {
                    entry.key: round(
                        profile.get(locator[index][0], 0.0) * 1000.0, 3
                    )
                    for index, entry in enumerate(admitted)
                }
        for index, entry in enumerate(admitted):
            cell_index, member = locator[index]
            outcome = grid[cell_index].results[0]
            status, value, spent, message = (
                outcome if member is None else outcome[member]
            )
            with obs_span(trace, "commit", key=entry.key):
                try:
                    actual, remaining = entry.dataset.budget.commit(
                        entry.reservation, spent, label=entry.key
                    )
                    entry.settled = True
                except CoordinatorUnavailableError as exc:
                    # The release already happened but its spend could not
                    # be committed: the coordinator keeps the (larger)
                    # reservation held, so the joint cap stays safe, and
                    # the answer reports the outage instead of the value —
                    # an uncommitted release must not be served or cached.
                    entry.settled = True
                    entry.flight.answer = self._unavailable(
                        entry.request, entry.key, str(exc)
                    )
                    continue
            self._audit_event(
                "commit",
                budget=entry.dataset.budget_owner,
                dataset=entry.request.dataset,
                kind=entry.request.query.kind,
                key=entry.key,
                epsilon=actual,
                analyst=entry.request.analyst,
                status=status,
            )
            self._record_spend(entry.request.query.kind, entry.request.analyst, actual)
            if status == "ok":
                answer = QueryAnswer(
                    dataset=entry.request.dataset,
                    kind=entry.request.query.kind,
                    status="ok",
                    key=entry.key,
                    value=value,
                    epsilon_charged=actual,
                    remaining=remaining,
                    query=entry.request.query,
                )
                self._cache.put(entry.key, answer)
            else:
                answer = QueryAnswer(
                    dataset=entry.request.dataset,
                    kind=entry.request.query.kind,
                    status="failed",
                    key=entry.key,
                    error="mechanism_error",
                    message=message,
                    epsilon_charged=actual,
                    remaining=remaining,
                    query=entry.request.query,
                )
            entry.flight.answer = answer

    # -- introspection -----------------------------------------------------
    def spend_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Committed-epsilon totals per estimator kind and per analyst.

        One consistent snapshot (taken under the spend lock) feeds both the
        ``stats()`` document and the ``/metrics`` gauges, so the two surfaces
        can never disagree.
        """
        with self._spend_lock:
            return {
                "kinds": dict(sorted(self._kind_spend.items())),
                "analysts": dict(sorted(self._analyst_spend.items())),
            }

    def stats(self) -> Dict[str, Any]:
        """JSON-safe snapshot: datasets, budgets, joint groups, cache counters."""
        document: Dict[str, Any] = {
            "datasets": [dataset.to_json() for dataset in self.registry],
            "groups": self.registry.groups_json(),
            "cache": self._cache.stats.to_json(),
            "workers": self.workers,
            "seed": self._seed,
            "spend": self.spend_snapshot(),
        }
        if self.tracer is not None:
            document["traces"] = self.tracer.stats()
        if self.audit is not None:
            document["audit"] = self.audit.stats()
        return document

"""The request core both service front doors share: a request in, a response out.

:class:`App` answers one HTTP request — method, path, lowercase headers and
body bytes — over a :class:`~repro.service.QueryService` and does no I/O of
its own.  The threaded door (:mod:`repro.service.http`) and the asyncio door
(:mod:`repro.service.aio`) read the head with :mod:`repro.service.httphead`,
read the body (``413`` and ``100 Continue`` stay theirs), call
:meth:`App.handle` and write the :class:`Response`.  The routes, the query
and batch paths, the rate-limit gate, the per-request trace and the mapping
of failures to statuses therefore exist once, and the doors cannot drift.

Blocking work — a cold query, a batch, a registration, an admin mutation —
is never done inside :meth:`App.handle`: it returns a zero-argument callable
instead, which the threaded door calls inline and the asyncio door runs in
its executor.  Everything else (a cache hit, a refusal, a 429, an invalid
request, every read surface) is answered at once.

Every response body is built by :mod:`repro.service.wire` (the v1 envelope:
``"api": 1`` plus a structured ``error`` object).

Protocol
--------
``GET /health``
    ``{"api": 1, "status": "ok", "datasets": [...names...]}`` — liveness.
``GET /datasets``
    Per-dataset budget snapshots (including each dataset's ``kinds``
    allowlist and ``draining`` flag) plus cache counters (the
    :meth:`QueryService.stats` document) and the door's own counters under
    ``frontend``.
``GET /kinds``
    The estimator-spec registry catalogue: every servable kind with its
    typed parameter schema, reservation factor, minimum record count and
    result shape — the authoritative list a client should consult before
    querying.  An unknown ``kind`` in a query is answered with a structured
    400 whose body carries the same list (``error.code = "unknown_kind"``).
``GET /metrics``
    Prometheus text exposition (version 0.0.4): the ``stats()`` counters
    plus per-kind / per-outcome request-latency histograms and — when
    observability is on — per-kind / per-analyst epsilon-spent gauges.
``GET /debug/traces`` / ``GET /debug/traces/<id>``
    Recent request traces from the bounded in-memory ring, newest first
    (404 ``tracing_disabled`` without an ``[observability]`` tracer).  A
    traced ``POST /query`` response — a 400 included — echoes its
    ``"trace"`` id, minted per request or honoured from an
    ``X-Repro-Trace-Id`` header, for lookup here or via ``repro trace <id>``.
    The trace is finished before the response exists, so the id can be
    looked up the moment the client reads it.
``POST /query``
    Body: a query object —
    ``{"dataset": ..., "kind": ..., "epsilon": ..., "beta": ...,``
    ``"params": {"levels": [...]}, "analyst": ...}`` — or
    ``{"queries": [...]}`` with a list of such objects, which is answered
    as one batch through the service's engine-pool fan-out.  (Kind
    parameters live under ``params`` only.)  Response: the answer document
    (or ``{"answers": [...]}``); its ``remaining`` on a cache hit against
    a cluster joint budget is the coordinator's last reported value, not a
    fresh read (see
    :class:`~repro.service.QueryAnswer`).  HTTP status mirrors the
    outcome: 200 for ``ok``/``failed`` (a failed propose-test-release is a
    valid, budgeted DP outcome), 403 for budget refusals, 404 for unknown
    datasets, 400 for malformed requests (an empty or non-JSON body
    included), 429 with
    ``Retry-After`` for per-analyst/per-kind rate limits (refused *before*
    admission: the budget ledger is untouched), 503
    ``coordinator_unavailable`` when the dataset draws on a cluster joint
    budget whose coordinator is unreachable.  Batch responses are always
    200; inspect each answer's ``status``.  A single query is first asked
    of :meth:`QueryService.peek` (cache hits and sure refusals, never an
    estimator run); only a query that needs a fresh release is deferred to
    :meth:`QueryService.submit`.
``POST /datasets``
    Registration (only when built with ``allow_register=True``, else 403):
    ``{"name": ..., "values": [...], "budget": ..., "analyst_budgets": {...}}``
    → 201.
``GET /admin/state`` / ``POST /admin/reload`` / ``POST /admin/drain``
    The live control plane (:class:`~repro.service.admin.AdminController`),
    authenticated with ``Authorization: Bearer <token>`` or
    ``X-Admin-Token``; 403 ``admin_disabled`` when no controller (or no
    secret) is configured.  An empty ``POST`` body is allowed (an empty
    reload re-reads the booted config).

Any other path is a 404 ``unknown_path``.  A :class:`~repro.exceptions.ReproError`
raised anywhere on a request's path is a 400 ``invalid_request`` and any
other exception a 500 ``internal``: a failure is a response, never a
traceback.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Union

from repro.exceptions import ReproError
from repro.obs import span as obs_span
from repro.service import wire
from repro.service.executor import QueryService
from repro.service.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service.queries import InvalidQueryError

__all__ = ["App", "Response", "decode_json", "json_response", "traces_response"]


class Response(NamedTuple):
    """One HTTP response: the door writes it with its own connection header."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Optional[Mapping[str, str]] = None


#: What :meth:`App.handle` returns: the response now, or the blocking rest of it.
Result = Union[Response, Callable[[], Response]]


def json_response(
    status: int, document: Dict[str, Any], headers: Optional[Mapping[str, str]] = None
) -> Response:
    return Response(status, json.dumps(document).encode("utf-8"), "application/json", headers)


def decode_json(body: bytes, *, allow_empty: bool = False) -> Any:
    """The JSON document of a request body; raises :class:`InvalidQueryError`."""
    if not body:
        if allow_empty:
            return None
        raise InvalidQueryError("request body is empty")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidQueryError(f"request body is not valid JSON: {exc}") from exc


def traces_response(tracer: Any, path: str) -> Response:
    """``GET /debug/traces`` or ``GET /debug/traces/<id>`` off ``tracer``."""
    if tracer is None:
        return json_response(404, wire.tracing_disabled())
    if path == "/debug/traces":
        return json_response(200, wire.traces_document(tracer))
    return json_response(*wire.trace_document(tracer, path[len("/debug/traces/"):]))


def _trace_id(trace: Any) -> Optional[str]:
    return trace.trace_id if trace is not None else None


class App:
    """Every route of the service doors over one :class:`QueryService`.

    ``limiter`` is the pre-admission QoS gate, ``admin`` the control plane
    behind ``/admin`` and ``allow_register`` opens ``POST /datasets``.
    ``frontend`` tags each trace (``"threaded"`` or ``"async"``) and
    ``frontend_stats()`` returns the door's counters for ``GET /datasets``
    and ``GET /metrics``.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        limiter: Optional[Any] = None,
        admin: Optional[Any] = None,
        allow_register: bool = False,
        frontend: str,
        frontend_stats: Callable[[], Dict[str, Any]],
    ):
        self.service = service
        self.limiter = limiter
        self.admin = admin
        self.allow_register = allow_register
        self.frontend = frontend
        self.frontend_stats = frontend_stats

    def handle(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> Result:
        """Answer one request, or return the zero-argument callable that will.

        ``headers`` are keyed by lowercase name (:class:`httphead.RequestHead`).
        A ``POST /query`` runs under one trace, opened here and finished
        once its response exists (after the deferred part, if any).
        """
        tracer = self.service.tracer
        trace = None
        try:
            if method == "POST" and path == "/query":
                if tracer is not None:
                    trace = tracer.start(
                        headers.get("x-repro-trace-id"), frontend=self.frontend
                    )
                return self._settle(tracer, trace, self._query(trace, body))
            return self._settle(None, None, self._route(method, path, headers, body))
        except Exception as exc:  # noqa: BLE001 - a failure is a response
            return self._settle(tracer, trace, self._failure(trace, exc))

    # -- containment -------------------------------------------------------
    def _settle(self, tracer: Any, trace: Any, result: Result) -> Result:
        """Finish the trace once a response exists; a deferral carries it along."""
        if callable(result):
            return partial(self._resume, tracer, trace, result)
        if trace is not None:
            tracer.finish(trace)
        return result

    def _resume(self, tracer: Any, trace: Any, work: Callable[[], Response]) -> Response:
        """Run deferred ``work`` under the same containment as :meth:`handle`."""
        try:
            return self._settle(tracer, trace, work())
        except Exception as exc:  # noqa: BLE001 - a failure is a response
            return self._settle(tracer, trace, self._failure(trace, exc))

    @staticmethod
    def _failure(trace: Any, exc: Exception) -> Response:
        if not isinstance(exc, ReproError):
            return json_response(500, wire.internal_error(exc))
        if trace is not None:
            trace.annotate(status="invalid")
        return json_response(
            400, wire.with_trace(wire.invalid_request(exc), _trace_id(trace))
        )

    # -- routes ------------------------------------------------------------
    def _route(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> Result:
        service = self.service
        if method == "GET":
            if path == "/health":
                return json_response(200, wire.health_document(service))
            if path == "/datasets":
                return json_response(
                    200, wire.stats_document(service, frontend=self.frontend_stats())
                )
            if path == "/kinds":
                return json_response(200, wire.kinds_document(service))
            if path == "/metrics":
                text = render_prometheus(
                    service, frontend=self.frontend_stats(), limiter=self.limiter
                )
                return Response(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
            if path == "/debug/traces" or path.startswith("/debug/traces/"):
                return traces_response(service.tracer, path)
        elif method == "POST" and path == "/datasets":
            if not self.allow_register:
                return json_response(403, wire.registration_disabled())
            return lambda: json_response(
                *wire.register_response(service, decode_json(body))
            )
        if path.startswith("/admin"):
            return self._admin(method, path, headers, body)
        return json_response(404, wire.unknown_path(method, path))

    def _admin(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> Result:
        admin = self.admin
        if admin is None:
            return json_response(403, wire.admin_disabled())
        token = wire.bearer_token(
            headers.get("authorization"), headers.get("x-admin-token")
        )
        if method == "GET":
            return json_response(*admin.handle("GET", path, None, token))
        payload = decode_json(body, allow_empty=True)
        # Reloads load dataset sources and take the admin lock: deferred.
        return lambda: json_response(*admin.handle(method, path, payload, token))

    def _check_rate_limit(self, request) -> Optional[Any]:
        """The pre-admission QoS gate: a decision means *refuse with 429*.

        Runs before any budget or cache access, so a 429 costs the ledger
        nothing; the refusal is still visible in the latency histogram under
        the ``rate_limited`` outcome (at zero recorded latency).
        """
        if self.limiter is None:
            return None
        decision = self.limiter.check(request.analyst, request.query.kind)
        if decision is not None:
            self.service.metrics.observe(request.query.kind, "rate_limited", 0.0)
            wire.audit_rate_limit(self.service, request, decision)
        return decision

    def _query(self, trace: Any, body: bytes) -> Result:
        """``POST /query``: parse, rate check, ``peek``, then ``submit`` if needed."""
        payload = decode_json(body)
        if isinstance(payload, dict) and "queries" in payload:
            return self._batch(trace, payload["queries"])
        with obs_span(trace, "parse"):
            request = wire.parse_request(payload)
        if trace is not None:
            trace.annotate(
                dataset=request.dataset, kind=request.query.kind, analyst=request.analyst
            )
        with obs_span(trace, "rate_check") as info:
            decision = self._check_rate_limit(request)
            info["limited"] = decision is not None
        if decision is not None:
            if trace is not None:
                trace.annotate(status="rate_limited")
            return json_response(
                429,
                wire.with_trace(wire.rate_limited_answer(request, decision), _trace_id(trace)),
                {"Retry-After": wire.retry_after_header(decision)},
            )
        answer = self.service.peek(request, trace=trace)
        if answer is None:
            return lambda: self._answered(trace, self.service.submit(request, trace=trace))
        return self._answered(trace, answer)

    @staticmethod
    def _answered(trace: Any, answer: Any) -> Response:
        if trace is not None:
            trace.annotate(status=answer.status, cached=answer.cached)
        with obs_span(trace, "serialize"):
            document = wire.with_trace(wire.answer_document(answer), _trace_id(trace))
        return json_response(wire.answer_status_code(answer), document)

    def _batch(self, trace: Any, entries: Any) -> Callable[[], Response]:
        if not isinstance(entries, list):
            raise InvalidQueryError("'queries' must be a list of query objects")
        with obs_span(trace, "parse", queries=len(entries)):
            parsed = [wire.parse_request(entry) for entry in entries]
        if trace is not None:
            trace.annotate(queries=len(parsed))
        docs: List[Optional[Dict[str, Any]]] = [None] * len(parsed)
        admitted = []
        with obs_span(trace, "rate_check"):
            for index, request in enumerate(parsed):
                decision = self._check_rate_limit(request)
                if decision is not None:
                    docs[index] = wire.rate_limited_answer(request, decision)
                else:
                    admitted.append(index)

        def run() -> Response:
            answers = self.service.submit_many(
                [parsed[index] for index in admitted], trace=trace
            )
            with obs_span(trace, "serialize"):
                for index, answer in zip(admitted, answers):
                    docs[index] = wire.answer_document(answer)
                document = wire.with_trace(wire.answers_document(docs), _trace_id(trace))
            return json_response(200, document)

        return run

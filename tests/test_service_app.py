"""The request core (:class:`repro.service.app.App`) called directly, no socket.

Both service doors are transports over this one object, so every route,
the rate-limit gate, the deferred cold path and the error mapping are
pinned here once; the doors' own suites (``test_http_protocol.py``,
``test_service_aio.py``) check what the transports add.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import TraceRecorder
from repro.service import LimitSpec, QueryService, RateLimiter, RateLimits
from repro.service.app import App, Response
from repro.service.metrics import PROMETHEUS_CONTENT_TYPE

FRONTEND = {"frontend": "core-test", "disconnects": 0}


class _Admin:
    """Records what the core forwards to the control plane."""

    def __init__(self):
        self.calls = []

    def handle(self, method, path, payload, token):
        self.calls.append((method, path, payload, token))
        return 200, {"api": 1, "status": "ok", "path": path}


def _service(tracer=True) -> QueryService:
    service = QueryService(seed=9, tracer=TraceRecorder(ring=16) if tracer else None)
    service.register("d", np.random.default_rng(6).normal(10.0, 2.0, 2_000), 5.0)
    return service


def _app(service=None, **kwargs) -> App:
    return App(
        service if service is not None else _service(),
        frontend="core-test",
        frontend_stats=lambda: dict(FRONTEND),
        **kwargs,
    )


def _query(epsilon=0.25, **extra) -> bytes:
    return json.dumps({"dataset": "d", "kind": "mean", "epsilon": epsilon, **extra}).encode()


def _now(result) -> Response:
    assert isinstance(result, Response), f"expected an answer now, got {result!r}"
    return result


def _deferred(result) -> Response:
    assert callable(result), f"expected deferred work, got {result!r}"
    return result()


def _doc(response: Response):
    assert response.content_type == "application/json"
    return json.loads(response.body)


class TestReadRoutes:
    def test_health(self):
        response = _now(_app().handle("GET", "/health", {}, b""))
        assert response.status == 200 and _doc(response)["datasets"] == ["d"]

    def test_datasets_carries_the_door_counters(self):
        document = _doc(_now(_app().handle("GET", "/datasets", {}, b"")))
        assert document["frontend"] == FRONTEND
        assert document["datasets"][0]["name"] == "d"

    def test_kinds(self):
        document = _doc(_now(_app().handle("GET", "/kinds", {}, b"")))
        assert "mean" in document["kinds"]

    def test_metrics_is_prometheus_text(self):
        response = _now(_app().handle("GET", "/metrics", {}, b""))
        assert response.status == 200
        assert response.content_type == PROMETHEUS_CONTENT_TYPE
        assert b"repro_" in response.body

    def test_traces_and_one_trace(self):
        app = _app()
        headers = {"x-repro-trace-id": "core-trace-1"}
        _deferred(app.handle("POST", "/query", headers, _query()))
        listing = _doc(_now(app.handle("GET", "/debug/traces", {}, b"")))
        assert [trace["trace"] for trace in listing["traces"]] == ["core-trace-1"]
        one = _now(app.handle("GET", "/debug/traces/core-trace-1", {}, b""))
        assert one.status == 200 and _doc(one)["trace"]["trace"] == "core-trace-1"
        missing = _now(app.handle("GET", "/debug/traces/nope", {}, b""))
        assert missing.status == 404

    def test_traces_without_a_tracer_is_404(self):
        response = _now(_app(_service(tracer=False)).handle("GET", "/debug/traces", {}, b""))
        assert response.status == 404
        assert _doc(response)["error"]["code"] == "tracing_disabled"

    @pytest.mark.parametrize("method, path", [("GET", "/nope"), ("POST", "/nope"),
                                              ("GET", "/query"), ("POST", "/health")])
    def test_unknown_route_is_404(self, method, path):
        response = _now(_app().handle(method, path, {}, b"{}"))
        assert response.status == 404
        assert _doc(response)["error"]["code"] == "unknown_path"


class TestQuery:
    def test_cold_query_is_deferred_and_its_repeat_answered_now(self):
        app = _app()
        cold = _deferred(app.handle("POST", "/query", {}, _query()))
        assert cold.status == 200 and _doc(cold)["cached"] is False
        hot = _now(app.handle("POST", "/query", {}, _query()))
        assert _doc(hot)["cached"] is True
        assert _doc(hot)["value"] == _doc(cold)["value"]

    def test_trace_is_finished_once_the_deferred_part_ran(self):
        app = _app()
        tracer = app.service.tracer
        work = app.handle("POST", "/query", {"x-repro-trace-id": "late-1"}, _query())
        assert callable(work) and tracer.get("late-1") is None
        document = _doc(work())
        assert document["trace"] == "late-1"
        names = [span["name"] for span in tracer.get("late-1")["spans"]]
        assert names[:3] == ["parse", "rate_check", "admission_probe"]
        assert "serialize" in names

    def test_batch_is_deferred(self):
        body = json.dumps({"queries": [json.loads(_query(0.25)), json.loads(_query(0.3))]})
        response = _deferred(_app().handle("POST", "/query", {}, body.encode()))
        answers = _doc(response)["answers"]
        assert response.status == 200 and [a["status"] for a in answers] == ["ok", "ok"]

    def test_rate_limited_query_is_429_with_retry_after(self):
        limiter = RateLimiter(RateLimits(analyst=LimitSpec(rate=0.001, burst=1.0)))
        app = _app(limiter=limiter)
        _deferred(app.handle("POST", "/query", {}, _query(0.25)))
        refused = _now(app.handle("POST", "/query", {}, _query(0.3)))
        assert refused.status == 429
        assert refused.headers == {"Retry-After": "1000"}
        assert _doc(refused)["error"]["code"] == "rate_limited"
        assert app.service.registry.get("d").budget.spent < 0.3

    @pytest.mark.parametrize("body, message", [
        (b"", "request body is empty"),
        (b"{nope", "request body is not valid JSON"),
        (b'{"queries": 3}', "'queries' must be a list"),
    ])
    def test_invalid_body_is_400_echoing_the_trace(self, body, message):
        response = _now(_app().handle("POST", "/query", {"x-repro-trace-id": "bad-1"}, body))
        document = _doc(response)
        assert response.status == 400
        assert document["error"]["code"] == "invalid_request"
        assert document["error"]["message"].startswith(message)
        assert document["trace"] == "bad-1"

    def test_unexpected_failure_is_500_not_a_traceback(self, monkeypatch):
        app = _app()

        def broken(*args, **kwargs):
            raise RuntimeError("engine lost")

        monkeypatch.setattr(app.service, "submit", broken)
        response = _deferred(app.handle("POST", "/query", {"x-repro-trace-id": "f-1"}, _query()))
        assert response.status == 500
        assert _doc(response)["error"]["code"] == "internal"
        assert app.service.tracer.get("f-1") is not None


class TestRegistrationAndAdmin:
    REGISTER = json.dumps({"name": "e", "values": [1.0, 2.0, 3.0] * 20, "budget": 2.0}).encode()

    def test_registration_disabled_is_403_now(self):
        response = _now(_app().handle("POST", "/datasets", {}, self.REGISTER))
        assert response.status == 403

    def test_registration_is_deferred(self):
        app = _app(allow_register=True)
        response = _deferred(app.handle("POST", "/datasets", {}, self.REGISTER))
        assert response.status == 201 and app.service.registry.names() == ["d", "e"]

    def test_malformed_registration_is_400(self):
        response = _deferred(_app(allow_register=True).handle("POST", "/datasets", {}, b"[]"))
        assert response.status == 400

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_admin_disabled_is_403(self, method):
        response = _now(_app().handle(method, "/admin/state", {}, b""))
        assert response.status == 403
        assert _doc(response)["error"]["code"] == "admin_disabled"

    def test_admin_read_is_answered_now_and_mutation_deferred(self):
        admin = _Admin()
        app = _app(admin=admin)
        state = _now(app.handle("GET", "/admin/state", {"authorization": "Bearer t"}, b""))
        assert state.status == 200
        reload = app.handle("POST", "/admin/reload", {"x-admin-token": "t"}, b"")
        assert callable(reload) and len(admin.calls) == 1
        assert _deferred(reload).status == 200
        assert admin.calls == [
            ("GET", "/admin/state", None, "t"),
            ("POST", "/admin/reload", None, "t"),
        ]

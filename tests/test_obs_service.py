"""Integration tests for observability: tracing, audit trail, spend accounting.

The acceptance contracts pinned here:

* answers with tracing + auditing enabled are bit-for-bit identical to the
  same service without them (observation never perturbs the release);
* every privacy-relevant decision appends exactly one audit record, and
  :func:`repro.obs.replay_spend` reproduces the live
  :class:`~repro.service.BudgetManager` ledger totals exactly;
* both HTTP front-ends echo the trace id, honour ``X-Repro-Trace-Id``, and
  serve ``GET /debug/traces``;
* every request is observed by the latency recorder exactly once.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import AuditLog, TraceRecorder, replay_spend, verify_audit_log
from repro.obs import audit as audit_module
from repro.obs import trace as trace_module
from repro.service import (
    AdminController,
    ObservabilityConfig,
    Query,
    QueryRequest,
    QueryService,
    ReloadRejected,
    AsyncServerThread,
    diff_serving_configs,
    make_server,
    render_prometheus,
    serve_forever,
)
from repro.service.admin import ConfigChange
from repro.service.config import parse_serving_config


@pytest.fixture
def data():
    return np.random.default_rng(3).normal(100.0, 15.0, size=8_000)


def make_observed_service(data, tmp_path, *, seed=7, budget=20.0, **register):
    tracer = TraceRecorder(ring=64)
    audit = AuditLog(tmp_path / "audit.jsonl")
    service = QueryService(seed=seed, tracer=tracer, audit=audit)
    service.register("d", data, budget, **register)
    return service


def audit_events(service):
    path = service.audit.path
    return [json.loads(line)["event"] for line in path.read_text().splitlines()]


# ---------------------------------------------------------------------------
# Observation never perturbs answers
# ---------------------------------------------------------------------------
class TestObservationIsFree:
    QUERIES = [
        ("mean", 0.5, {}),
        ("variance", 0.7, {}),
        ("quantile", 0.5, {"levels": [0.25, 0.75]}),
        ("iqr", 0.3, {}),
    ]

    def test_answers_bit_identical_with_and_without_observability(
        self, data, tmp_path
    ):
        plain = QueryService(seed=7)
        plain.register("d", data, 20.0)
        observed = make_observed_service(data, tmp_path, seed=7)

        for kind, epsilon, params in self.QUERIES:
            bare = plain.query("d", kind, epsilon=epsilon, **params)
            request = QueryRequest(
                "d", Query(kind=kind, epsilon=epsilon, params=params or None)
            )
            trace = observed.tracer.start(None, frontend="test")
            traced = observed.submit(request, trace=trace)
            observed.tracer.finish(trace)
            assert traced.status == bare.status == "ok"
            assert traced.value == bare.value  # exact, not approx
            assert traced.epsilon_charged == bare.epsilon_charged

        # The observed run really did trace and audit everything.
        assert observed.tracer.stats()["recorded"] == len(self.QUERIES)
        assert audit_events(observed).count("commit") == len(self.QUERIES)

    def test_traced_spans_cover_the_pipeline(self, data, tmp_path):
        service = make_observed_service(data, tmp_path)
        request = QueryRequest("d", Query(kind="mean", epsilon=0.5))
        trace = service.tracer.start(None)
        service.submit(request, trace=trace)
        service.tracer.finish(trace)
        document = service.tracer.get(trace.trace_id)
        names = [span["name"] for span in document["spans"]]
        for expected in ("admission", "engine", "commit"):
            assert expected in names, names
        engine = next(s for s in document["spans"] if s["name"] == "engine")
        assert engine["detail"]["cells"] == 1
        assert list(engine["detail"]["per_cell_ms"]) != []


# ---------------------------------------------------------------------------
# Audit trail from real service paths
# ---------------------------------------------------------------------------
class TestServiceAuditTrail:
    def test_lifecycle_events_in_order(self, data, tmp_path):
        service = make_observed_service(data, tmp_path, budget=1.0)
        assert service.query("d", "mean", epsilon=0.5).ok
        assert service.query("d", "mean", epsilon=0.5).cached
        refused = service.query("d", "mean", epsilon=5.0)
        assert refused.status == "refused"
        assert audit_events(service) == [
            "reserve", "commit", "cache_hit", "refuse",
        ]
        records = [
            json.loads(line)
            for line in service.audit.path.read_text().splitlines()
        ]
        assert records[0]["budget"] == "dataset:d"
        assert records[1]["status"] == "ok"
        assert records[3]["reason"] == "budget_exceeded"

    def test_replay_reproduces_ledger_totals_exactly(self, data, tmp_path):
        service = make_observed_service(
            data, tmp_path, budget=50.0, analyst_budgets={"alice": 10.0}
        )
        for kind, epsilon in (
            ("mean", 0.5), ("variance", 0.7), ("iqr", 0.3), ("mean", 0.9)
        ):
            answer = service.submit(
                QueryRequest(
                    "d", Query(kind=kind, epsilon=epsilon), analyst="alice"
                )
            )
            assert answer.ok
        ledger = service.registry.get("d").budget.to_json()
        report = replay_spend(service.audit.path)
        owner = report["owners"]["dataset:d"]
        assert owner["spent"] == ledger["spent"]  # bit-for-bit
        assert owner["analysts"]["alice"] == ledger["analysts"]["alice"]["spent"]
        # The service-wide spend gauges come from the same commits.
        snapshot = service.spend_snapshot()
        assert snapshot["analysts"]["alice"] == owner["spent"]
        assert sum(snapshot["kinds"].values()) == pytest.approx(owner["spent"])

    def test_draining_refusal_audited(self, data, tmp_path):
        service = make_observed_service(data, tmp_path)
        service.registry.set_draining("d", True)
        answer = service.query("d", "mean", epsilon=0.5)
        assert answer.status == "refused"
        records = [
            json.loads(line)
            for line in service.audit.path.read_text().splitlines()
        ]
        assert [r["event"] for r in records] == ["refuse"]
        assert records[0]["reason"] == "draining"


# ---------------------------------------------------------------------------
# Concurrency: no lost/duplicated audit records, replay still exact
# ---------------------------------------------------------------------------
class TestConcurrentAudit:
    THREADS = 4
    DATASETS_PER_THREAD = 3
    EPSILONS = (0.25, 0.5)

    def test_hammer_chain_intact_and_replay_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        service = QueryService(
            seed=5,
            tracer=TraceRecorder(ring=16),
            audit=AuditLog(tmp_path / "audit.jsonl"),
        )
        names = []
        for thread_index in range(self.THREADS):
            for dataset_index in range(self.DATASETS_PER_THREAD):
                name = f"t{thread_index}_d{dataset_index}"
                names.append(name)
                service.register(name, rng.normal(10.0, 2.0, 2_000), 5.0)

        errors = []

        def hammer(thread_index: int) -> None:
            try:
                for dataset_index in range(self.DATASETS_PER_THREAD):
                    name = f"t{thread_index}_d{dataset_index}"
                    for epsilon in self.EPSILONS:
                        answer = service.query(name, "mean", epsilon=epsilon)
                        assert answer.ok, answer
                    # Identical repeat: a zero-spend cache hit, also audited.
                    assert service.query(
                        name, "mean", epsilon=self.EPSILONS[0]
                    ).cached
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(n,))
            for n in range(self.THREADS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert errors == []

        commits = self.THREADS * self.DATASETS_PER_THREAD * len(self.EPSILONS)
        hits = self.THREADS * self.DATASETS_PER_THREAD
        # verify_audit_log checks seq contiguity: lost or duplicated records
        # under concurrency would break it.
        count, _ = verify_audit_log(service.audit.path)
        assert count == 2 * commits + hits  # reserve+commit per release
        report = replay_spend(service.audit.path)
        assert report["events"]["commit"] == commits
        assert report["events"]["cache_hit"] == hits
        for name in names:
            ledger = service.registry.get(name).budget.to_json()
            assert report["owners"][f"dataset:{name}"]["spent"] == ledger["spent"]
        assert sum(report["kinds"].values()) == pytest.approx(
            sum(service.spend_snapshot()["kinds"].values())
        )


# ---------------------------------------------------------------------------
# Front-ends: trace echo, header honouring, /debug/traces
# ---------------------------------------------------------------------------
def _call(url, path, payload=None, headers=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path,
        data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class _FrontEndContract:
    """Shared assertions; subclasses provide a ``url`` fixture per front-end."""

    def test_query_echoes_minted_trace_id(self, url):
        _, doc = _call(url, "/query", {"dataset": "d", "kind": "mean", "epsilon": 0.5})
        assert doc["status"] == "ok"
        assert len(doc["trace"]) == 16
        int(doc["trace"], 16)

    def test_client_supplied_trace_id_honoured(self, url):
        status, doc = _call(
            url, "/query",
            {"dataset": "d", "kind": "iqr", "epsilon": 0.5},
            headers={"X-Repro-Trace-Id": "client-chosen-id"},
        )
        assert status == 200
        assert doc["trace"] == "client-chosen-id"
        status, found = _call(url, "/debug/traces/client-chosen-id")
        assert status == 200
        assert found["trace"]["trace"] == "client-chosen-id"
        assert found["trace"]["meta"]["dataset"] == "d"

    def test_error_documents_carry_the_trace_id(self, url):
        status, doc = _call(url, "/query", {"dataset": "d", "epsilon": 0.5})
        assert status == 400
        assert doc["status"] == "error"
        assert len(doc["trace"]) == 16

    def test_debug_traces_lists_recent(self, url):
        _call(url, "/query", {"dataset": "d", "kind": "variance", "epsilon": 0.5})
        status, doc = _call(url, "/debug/traces")
        assert status == 200
        assert doc["tracing"]["recorded"] >= 1
        newest = doc["traces"][0]
        assert {"trace", "duration_ms", "spans"} <= set(newest)
        names = [span["name"] for span in newest["spans"]]
        assert "parse" in names and "serialize" in names

    def test_unknown_trace_id_404(self, url):
        status, doc = _call(url, "/debug/traces/deadbeefdeadbeef")
        assert status == 404
        assert doc["error"]["code"] == "unknown_trace"

    def test_batch_traced_as_one_request(self, url):
        status, doc = _call(
            url, "/query",
            {"queries": [
                {"dataset": "d", "kind": "mean", "epsilon": 0.5},
                {"dataset": "d", "kind": "iqr", "epsilon": 0.5},
            ]},
            headers={"X-Repro-Trace-Id": "batch-trace"},
        )
        assert status == 200
        assert doc["trace"] == "batch-trace"
        _, found = _call(url, "/debug/traces/batch-trace")
        assert found["trace"]["meta"]["queries"] == 2


def _observed_http_service(data, tmp_path):
    service = QueryService(
        seed=13,
        tracer=TraceRecorder(ring=32),
        audit=AuditLog(tmp_path / "audit.jsonl"),
    )
    service.register("d", data, 50.0)
    return service


class TestThreadedFrontEnd(_FrontEndContract):
    @pytest.fixture
    def url(self, data, tmp_path):
        service = _observed_http_service(data, tmp_path)
        server = make_server(service, port=0, quiet=True)
        thread = serve_forever(server)
        yield server.url
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestAsyncFrontEnd(_FrontEndContract):
    @pytest.fixture
    def url(self, data, tmp_path):
        service = _observed_http_service(data, tmp_path)
        with AsyncServerThread(service, port=0, quiet=True) as thread:
            yield thread.url


def _eager_document(trace):
    """The trace document as the recorder built it at finish, eagerly."""
    spans = []
    for record in trace.spans:
        span = {
            "name": record.name,
            "start_ms": round(record.start, 3),
            "duration_ms": round(record.duration, 3),
        }
        if record.detail:
            span["detail"] = record.detail
        spans.append(span)
    document = {"trace": trace.trace_id, "duration_ms": round(trace.finish(), 3),
                "spans": spans}
    if trace.meta:
        document["meta"] = trace.meta
    document["time"] = trace._time  # the wall clock read at finish
    return document


@pytest.mark.parametrize("frontend", ["threaded", "async"])
def test_debug_trace_is_the_eagerly_built_document(frontend, data, tmp_path):
    service = _observed_http_service(data, tmp_path)
    query = {"dataset": "d", "kind": "mean", "epsilon": 0.5}
    if frontend == "threaded":
        server = make_server(service, port=0, quiet=True)
        thread = serve_forever(server)
        url, stop = server.url, lambda: (server.shutdown(), server.server_close())
    else:
        runner = AsyncServerThread(service, port=0, quiet=True).start()
        url, stop = runner.url, runner.stop
    try:
        for trace_id in ("cold-one", "cached-one"):
            _call(url, "/query", query, headers={"X-Repro-Trace-Id": trace_id})
            status, found = _call(url, f"/debug/traces/{trace_id}")
            assert status == 200
            eager = _eager_document(service.tracer._traces[trace_id])
            assert json.dumps(found["trace"]) == json.dumps(eager)
    finally:
        stop()
    if frontend == "threaded":
        thread.join(timeout=5)


def test_cached_submit_encodes_once_and_reads_no_entropy(data, tmp_path, monkeypatch):
    """The instruments' per-request syscalls and encodes stay counted."""
    service = make_observed_service(data, tmp_path)
    request = QueryRequest("d", Query(kind="mean", epsilon=0.5))
    service.submit(request)
    trace_module._reset_id_pool()
    trace_module.mint_trace_id()  # warm: 511 pooled ids left
    encodes, reads = [], []
    encoder = audit_module._ENCODER

    class Counting:
        def encode(self, value):
            encodes.append(value["event"])
            return encoder.encode(value)

    def urandom(size):
        reads.append(size)
        return b"\0" * size

    monkeypatch.setattr(audit_module, "_ENCODER", Counting())
    monkeypatch.setattr(os, "urandom", urandom)
    trace = service.tracer.start(None)
    answer = service.submit(request, trace=trace)
    service.tracer.finish(trace)
    assert answer.cached
    assert encodes == ["cache_hit"]
    assert reads == []


class TestTracingDisabled:
    @pytest.fixture
    def url(self, data):
        service = QueryService(seed=13)  # no tracer, no audit
        service.register("d", data, 10.0)
        server = make_server(service, port=0, quiet=True)
        thread = serve_forever(server)
        yield server.url
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_debug_traces_404_and_untraced_answers(self, url):
        status, doc = _call(url, "/debug/traces")
        assert status == 404
        assert doc["error"]["code"] == "tracing_disabled"
        _, answer = _call(
            url, "/query", {"dataset": "d", "kind": "mean", "epsilon": 0.5}
        )
        assert answer["status"] == "ok"
        assert "trace" not in answer  # wire shape unchanged when tracing is off


# ---------------------------------------------------------------------------
# Metrics: single observation per request, spend gauges
# ---------------------------------------------------------------------------
class TestMetricsIntegration:
    def test_each_request_observed_exactly_once(self, data, tmp_path):
        service = make_observed_service(data, tmp_path)
        assert service.query("d", "mean", epsilon=0.5).ok
        assert service.query("d", "mean", epsilon=0.5).cached
        refused = service.query("d", "mean", epsilon=100.0)
        assert refused.status == "refused"
        counts = {
            label: cell.count
            for label, cell in service.metrics.snapshot().items()
        }
        assert counts == {
            ("mean", "ok"): 1, ("mean", "cached"): 1, ("mean", "refused"): 1,
        }

    def test_spend_and_obs_gauges_rendered(self, data, tmp_path):
        service = make_observed_service(data, tmp_path)
        request = QueryRequest(
            "d", Query(kind="mean", epsilon=0.5), analyst="alice"
        )
        trace = service.tracer.start(None)
        service.submit(request, trace=trace)
        service.tracer.finish(trace)
        text = render_prometheus(service)
        assert 'repro_kind_spent_epsilon{kind="mean"}' in text
        assert 'repro_analyst_spent_epsilon{analyst="alice"}' in text
        assert "repro_traces_recorded_total 1" in text
        assert "repro_audit_records_total 2" in text  # reserve + commit

    def test_stats_document_carries_obs_sections(self, data, tmp_path):
        service = make_observed_service(data, tmp_path)
        service.query("d", "mean", epsilon=0.5)
        stats = service.stats()
        assert stats["spend"]["kinds"]["mean"] > 0.0
        assert stats["traces"]["ring"] == 64
        assert stats["audit"]["records"] == 2
        plain = QueryService(seed=1)
        bare = plain.stats()
        assert "traces" not in bare and "audit" not in bare
        assert bare["spend"] == {"kinds": {}, "analysts": {}}


# ---------------------------------------------------------------------------
# Admin control plane: observability diff/apply, control events audited
# ---------------------------------------------------------------------------
VALUES = [float(v) for v in range(64)]


def make_config(observability=None):
    document = {
        "service": {"seed": 7, "quiet": True},
        "datasets": [{"name": "d", "values": VALUES, "budget": 4.0}],
    }
    if observability is not None:
        document["observability"] = observability
    return parse_serving_config(document)


class TestAdminObservability:
    def test_trace_settings_diff_to_live_change(self):
        old = make_config({"trace_ring": 64})
        new = make_config({"trace_ring": 128, "slow_query_ms": 5.0})
        changes = diff_serving_configs(old, new)
        assert [change.action for change in changes] == ["update_observability"]
        assert changes[0].detail == {"trace_ring": 128, "slow_query_ms": 5.0}

    def test_audit_log_change_requires_restart(self, tmp_path):
        old = make_config({"audit_log": str(tmp_path / "a.jsonl")})
        new = make_config({"audit_log": str(tmp_path / "b.jsonl")})
        with pytest.raises(ReloadRejected) as excinfo:
            diff_serving_configs(old, new)
        assert any("audit_log" in p for p in excinfo.value.problems)

    def test_unchanged_observability_diffs_empty(self, tmp_path):
        observability = {"trace_ring": 64, "audit_log": str(tmp_path / "a.jsonl")}
        assert diff_serving_configs(
            make_config(observability), make_config(observability)
        ) == []

    def test_reload_hot_swaps_tracer_live(self, data):
        service = QueryService(seed=7)
        service.register("d", data, 10.0)
        controller = AdminController(
            service, config=make_config(), token="s3cret"
        )
        document = {
            "service": {"seed": 7, "quiet": True},
            "datasets": [{"name": "d", "values": VALUES, "budget": 4.0}],
            "observability": {"trace_ring": 8, "slow_query_ms": 2.5},
        }
        result = controller.reload({"config": document})
        assert [c["action"] for c in result["applied"]] == ["update_observability"]
        assert service.tracer is not None
        assert service.tracer.stats()["ring"] == 8
        assert service.tracer.stats()["slow_query_ms"] == 2.5
        # And back off again: tracer removed live.
        document.pop("observability")
        controller.reload({"config": document})
        assert service.tracer is None

    def test_control_plane_actions_audited(self, data, tmp_path):
        service = make_observed_service(data, tmp_path, budget=4.0)
        controller = AdminController(
            service, config=make_config(), token="s3cret"
        )
        controller.drain("d", True)
        controller.reload({"config": {
            "service": {"seed": 7, "quiet": True},
            "datasets": [{"name": "d", "values": VALUES, "budget": 4.0}],
        }})
        records = [
            json.loads(line)
            for line in service.audit.path.read_text().splitlines()
        ]
        assert [r["event"] for r in records] == ["drain", "admin_reload"]
        assert records[0] == {**records[0], "dataset": "d", "draining": True}
        assert records[1]["unchanged"] is True

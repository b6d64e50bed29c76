"""Unit tests for repro.obs: trace model, recorder ring, audit chain, replay."""

from __future__ import annotations

import hashlib
import json
import os
import threading

import pytest

from repro.exceptions import DomainError
from repro.obs import (
    AuditChainError,
    AuditLog,
    Trace,
    TraceRecorder,
    mint_trace_id,
    replay_spend,
    span,
    verify_audit_log,
)
from repro.obs import audit as audit_module
from repro.obs import trace as trace_module
from repro.obs.audit import GENESIS
from repro.obs.trace import accept_trace_id


class FakeClock:
    """Deterministic monotonic clock advanced by hand."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Trace ids
# ---------------------------------------------------------------------------
class TestTraceIds:
    def test_minted_ids_are_16_hex_and_distinct(self):
        ids = {mint_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)

    def test_ids_come_from_pooled_os_entropy(self, monkeypatch):
        reads = []
        real_urandom = os.urandom

        def counting(size):
            reads.append(size)
            return real_urandom(size)

        monkeypatch.setattr(os, "urandom", counting)
        ids = [mint_trace_id() for _ in range(10_000)]
        assert len(set(ids)) == 10_000
        assert all(len(i) == 16 and set(i) <= set("0123456789abcdef") for i in ids)
        assert len(reads) <= 20

    def test_forked_child_mints_its_own_ids(self):
        mint_trace_id()  # the child inherits a pool with ids left in it
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                os.write(writer, " ".join(mint_trace_id() for _ in range(4)).encode())
            finally:
                os._exit(0)
        os.close(writer)
        with os.fdopen(reader) as pipe:
            child = pipe.read().split()
        os.waitpid(pid, 0)
        parent = [mint_trace_id() for _ in range(4)]
        assert len(child) == 4 and not set(child) & set(parent)

    def test_wellformed_header_honoured(self):
        assert accept_trace_id("my-trace.01_X") == "my-trace.01_X"
        assert accept_trace_id("  padded  ") == "padded"

    @pytest.mark.parametrize(
        "bad", [None, "", "   ", "a" * 65, "has space", "héx", "semi;colon"]
    )
    def test_malformed_header_replaced_never_rejected(self, bad):
        result = accept_trace_id(bad)
        assert result != bad
        assert len(result) == 16


# ---------------------------------------------------------------------------
# Trace + spans
# ---------------------------------------------------------------------------
class TestTrace:
    def test_span_timing_and_detail(self):
        clock = FakeClock()
        trace = Trace("t1", clock=clock, frontend="test")
        clock.tick(0.010)
        with trace.span("parse", bytes=42) as info:
            clock.tick(0.005)
            info["fields"] = 3
        assert len(trace.spans) == 1
        recorded = trace.spans[0]
        assert recorded.name == "parse"
        assert recorded.start == pytest.approx(10.0)
        assert recorded.duration == pytest.approx(5.0)
        assert recorded.detail == {"bytes": 42, "fields": 3}

    def test_span_recorded_even_when_stage_raises(self):
        trace = Trace("t2", clock=FakeClock())
        with pytest.raises(RuntimeError):
            with trace.span("engine"):
                raise RuntimeError("boom")
        assert [recorded.name for recorded in trace.spans] == ["engine"]

    def test_finish_latches_duration(self):
        clock = FakeClock()
        trace = Trace("t3", clock=clock)
        clock.tick(0.25)
        first = trace.finish()
        clock.tick(1.0)
        assert trace.finish() == first == pytest.approx(250.0)

    def test_to_json_shape(self):
        clock = FakeClock()
        trace = Trace("t4", clock=clock, frontend="threaded")
        with trace.span("parse"):
            clock.tick(0.001)
        trace.annotate(dataset="d", status="ok")
        document = trace.to_json()
        assert document["trace"] == "t4"
        assert document["meta"] == {
            "frontend": "threaded", "dataset": "d", "status": "ok",
        }
        assert [s["name"] for s in document["spans"]] == ["parse"]
        json.dumps(document)  # JSON-safe throughout

    def test_module_span_noop_without_trace(self):
        assert span(None, "anything") is span(None, "else", key="v")
        with span(None, "anything", key="v") as info:
            info["x"] = 1  # must be writable and discarded
        trace = Trace("t5", clock=FakeClock())
        with span(trace, "stage") as info:
            info["hit"] = True
        assert trace.spans[0].detail == {"hit": True}


# ---------------------------------------------------------------------------
# TraceRecorder
# ---------------------------------------------------------------------------
class TestTraceRecorder:
    def test_ring_evicts_oldest(self):
        recorder = TraceRecorder(ring=2, clock=FakeClock())
        for name in ("a", "b", "c"):
            trace = Trace(name, clock=FakeClock())
            recorder.finish(trace)
        assert recorder.get("a") is None
        assert recorder.get("b") is not None
        assert [t["trace"] for t in recorder.recent()] == ["c", "b"]
        stats = recorder.stats()
        assert stats == {
            "ring": 2, "held": 2, "recorded": 3,
            "slow_query_ms": None, "slow_queries": 0,
        }

    def test_document_rendered_on_read_is_the_finish_time_document(self, monkeypatch):
        clock = FakeClock()
        recorder = TraceRecorder(ring=4, clock=clock)
        trace = recorder.start("t-doc", frontend="threaded")
        clock.tick(0.0012344)
        with trace.span("parse", queries=2) as info:
            clock.tick(0.0030006)
            info["bytes"] = 17
        with trace.span("serialize"):
            clock.tick(0.0005)
        trace.annotate(status="ok", cached=True)
        monkeypatch.setattr(trace_module.time, "time", lambda: 1_700_000_000.25)
        assert recorder.finish(trace) is None
        with trace.span("late"):  # after finish: not part of the trace
            clock.tick(1.0)
        expected = {
            "trace": "t-doc",
            "duration_ms": 4.735,
            "spans": [
                {"name": "parse", "start_ms": 1.234, "duration_ms": 3.001,
                 "detail": {"queries": 2, "bytes": 17}},
                {"name": "serialize", "start_ms": 4.235, "duration_ms": 0.5},
            ],
            "meta": {"frontend": "threaded", "status": "ok", "cached": True},
            "time": 1_700_000_000.25,
        }
        # Same keys in the same order, same rounding, same wall-clock time.
        assert json.dumps(recorder.get("t-doc")) == json.dumps(expected)
        assert json.dumps(recorder.recent()) == json.dumps([expected])

    def test_recent_renders_only_the_newest(self):
        recorder = TraceRecorder(ring=8, clock=FakeClock())
        for name in "abcde":
            recorder.finish(Trace(name, clock=FakeClock()))
        assert [t["trace"] for t in recorder.recent(2)] == ["e", "d"]
        assert recorder.recent(0) == [] and recorder.recent(-1) == []

    def test_start_accepts_header_id(self):
        recorder = TraceRecorder(ring=4)
        assert recorder.start("client-id").trace_id == "client-id"
        assert recorder.start("bad header!").trace_id != "bad header!"

    def test_slow_query_line_emitted_over_threshold(self):
        lines = []
        clock = FakeClock()
        recorder = TraceRecorder(
            ring=8, slow_query_ms=100.0, clock=clock, emit=lines.append
        )
        fast = recorder.start(None, kind="mean")
        clock.tick(0.05)
        recorder.finish(fast)
        slow = recorder.start(None, kind="iqr", dataset="d")
        clock.tick(0.2)
        recorder.finish(slow)
        assert len(lines) == 1
        assert lines[0].startswith(f"slow query trace={slow.trace_id} ")
        assert "threshold_ms=100" in lines[0]
        assert "dataset=d" in lines[0] and "kind=iqr" in lines[0]
        assert recorder.stats()["slow_queries"] == 1

    def test_configure_hot_swaps_ring_and_threshold(self):
        lines = []
        clock = FakeClock()
        recorder = TraceRecorder(ring=8, clock=clock, emit=lines.append)
        for name in ("a", "b", "c"):
            recorder.finish(Trace(name, clock=clock))
        recorder.configure(ring=1)
        assert recorder.stats()["held"] == 1
        recorder.configure(slow_query_ms=0.0)
        recorder.finish(Trace("d", clock=clock))
        assert len(lines) == 1
        recorder.configure(slow_query_enabled=False)
        recorder.finish(Trace("e", clock=clock))
        assert len(lines) == 1
        assert recorder.stats()["slow_query_ms"] is None

    def test_invalid_settings_rejected(self):
        with pytest.raises(DomainError):
            TraceRecorder(ring=0)
        with pytest.raises(DomainError):
            TraceRecorder(ring=4, slow_query_ms=-1.0)
        recorder = TraceRecorder(ring=4)
        with pytest.raises(DomainError):
            recorder.configure(ring=0)
        with pytest.raises(DomainError):
            recorder.configure(slow_query_ms=-0.5)


# ---------------------------------------------------------------------------
# Audit log: chain, verify, resume
# ---------------------------------------------------------------------------
class TestAuditChain:
    def test_round_trip_verifies(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            first = log.record("reserve", dataset="d", epsilon=0.5)
            second = log.record("commit", dataset="d", epsilon=0.25)
        assert first["seq"] == 1 and first["prev"] == GENESIS
        assert second["prev"] == first["hash"]
        count, final = verify_audit_log(path)
        assert (count, final) == (2, second["hash"])

    def test_empty_or_absent_log_verifies_trivially(self, tmp_path):
        assert verify_audit_log(tmp_path / "missing.jsonl") == (0, GENESIS)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert verify_audit_log(empty) == (0, GENESIS)

    def test_unknown_event_and_reserved_fields_rejected(self, tmp_path):
        with AuditLog(tmp_path / "a.jsonl") as log:
            with pytest.raises(DomainError):
                log.record("made_up_event")
            with pytest.raises(DomainError):
                log.record("commit", seq=99)
        assert verify_audit_log(tmp_path / "a.jsonl") == (0, GENESIS)

    def test_reopen_resumes_the_same_chain(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            log.record("reserve", dataset="d", epsilon=0.5)
        with AuditLog(path) as log:
            log.record("commit", dataset="d", epsilon=0.5)
        count, _ = verify_audit_log(path)
        assert count == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[1]["prev"] == records[0]["hash"]
        assert records[1]["seq"] == 2

    def test_closed_log_refuses_records(self, tmp_path):
        log = AuditLog(tmp_path / "a.jsonl")
        log.close()
        with pytest.raises(DomainError):
            log.record("commit", epsilon=0.1)

    def test_single_flipped_byte_detected(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            log.record("commit", dataset="d", kind="mean", epsilon=0.5)
            log.record("commit", dataset="d", kind="iqr", epsilon=0.25)
        original = path.read_text()
        # Flip one digit inside the first record's epsilon value (valid JSON
        # before and after): the recomputed hash must disagree.
        tampered = original.replace('"epsilon":0.5', '"epsilon":0.6', 1)
        assert tampered != original
        path.write_text(tampered)
        with pytest.raises(AuditChainError, match="tampered"):
            verify_audit_log(path)

    def test_dropped_line_detected(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            for epsilon in (0.1, 0.2, 0.3):
                log.record("commit", dataset="d", epsilon=epsilon)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2]]) + "\n")
        with pytest.raises(AuditChainError, match="sequence break"):
            verify_audit_log(path)

    def test_unparseable_line_detected(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            log.record("commit", dataset="d", epsilon=0.5)
        path.write_text(path.read_text() + "not json\n")
        with pytest.raises(AuditChainError, match="unparseable"):
            verify_audit_log(path)

    def test_concurrent_records_keep_chain_intact(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        threads, per_thread = 8, 25
        with AuditLog(path) as log:
            def hammer(worker: int) -> None:
                for i in range(per_thread):
                    log.record("commit", dataset="d", worker=worker,
                               step=i, epsilon=0.25)

            workers = [
                threading.Thread(target=hammer, args=(n,)) for n in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        # No lost or duplicated records, and the chain still verifies.
        count, _ = verify_audit_log(path)
        assert count == threads * per_thread
        report = replay_spend(path)
        assert report["events"] == {"commit": threads * per_thread}
        assert report["owners"][""]["spent"] == pytest.approx(
            threads * per_thread * 0.25
        )


def _reference_lines(records, clock, prev=GENESIS, seq=0):
    """The chain as a writer that ran ``json.dumps`` twice per record wrote it."""
    lines = []
    for event, fields in records:
        seq += 1
        record = dict(fields, seq=seq, time=clock(), event=event, prev=prev)
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        record["hash"] = prev = hashlib.sha256(body.encode("utf-8")).hexdigest()
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        lines.append(line.encode("utf-8"))
    return lines


class TestAuditGoldenBytes:
    """One encode per record writes the bytes of the two-encode writer."""

    RECORDS = [
        ("reserve", dict(budget="dataset:d", dataset="d", kind="mean",
                         key="mean|d|ε=0.1", epsilon=0.1, analyst="zoë")),
        ("commit", dict(budget="dataset:d", dataset="d", kind="mean",
                        key="mean|d|ε=0.1", epsilon=0.07500000000000001,
                        analyst="zoë", status="ok")),
        ("cache_hit", dict(dataset="d", kind="mean", key="mean|d|ε=0.1",
                           analyst=None)),
        ("refuse", dict(dataset="d", kind="iqr", key="iqr|d", analyst="日本",
                        reason="budget_exceeded")),
        # A nested value holding the placeholder member itself.
        ("admin_reload", dict(changes={"hash": "h" * 64, "prev": 1e-300})),
        ("commit", dict(budget="group:g", epsilon=1.0, kind="quantile",
                        note='quote " and \\ backslash')),
    ]

    @staticmethod
    def _clock():
        ticks = iter(1_700_000_000.0 + 0.1 * n for n in range(100))
        return lambda: next(ticks)

    def test_bytes_verify_and_replay(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path, clock=self._clock()) as log:
            for event, fields in self.RECORDS:
                log.record(event, **fields)
        expected = _reference_lines(self.RECORDS, self._clock())
        assert path.read_bytes() == b"".join(expected)
        assert verify_audit_log(path) == (
            len(self.RECORDS), json.loads(expected[-1])["hash"]
        )
        report = replay_spend(path)
        assert report["owners"]["dataset:d"]["spent"] == 0.07500000000000001
        assert report["owners"]["group:g"]["spent"] == 1.0

    def test_resumed_chain_keeps_the_reference_bytes(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        first, rest = self.RECORDS[:3], self.RECORDS[3:]
        clock = self._clock()
        with AuditLog(path, clock=clock) as log:
            for event, fields in first:
                log.record(event, **fields)
        with AuditLog(path, clock=clock) as log:
            for event, fields in rest:
                log.record(event, **fields)
        assert path.read_bytes() == b"".join(
            _reference_lines(self.RECORDS, self._clock())
        )
        assert verify_audit_log(path)[0] == len(self.RECORDS)

    def test_one_encode_per_record(self, tmp_path, monkeypatch):
        calls = []
        encoder = audit_module._ENCODER

        class Counting:
            def encode(self, value):
                calls.append(value["seq"])
                return encoder.encode(value)

        monkeypatch.setattr(audit_module, "_ENCODER", Counting())
        with AuditLog(tmp_path / "audit.jsonl") as log:
            for event, fields in self.RECORDS[:4]:
                log.record(event, **fields)
        assert calls == [1, 2, 3, 4]


def _seal_chain(path, count=6, start=0):
    """Write ``count`` commit records and close (which writes the head)."""
    with AuditLog(path) as log:
        for i in range(start, start + count):
            log.record("commit", dataset="d", kind="mean", epsilon=0.125 * (i + 1))
    return audit_module._head_path(path)


def _same_error(path) -> str:
    """Opening ``path`` fails exactly as verifying it in full does."""
    with pytest.raises(AuditChainError) as full:
        verify_audit_log(path)
    with pytest.raises(AuditChainError) as resumed:
        AuditLog(path)
    assert str(resumed.value) == str(full.value)
    return str(full.value)


def _flip_prefix_byte(path) -> None:
    text = path.read_text()
    tampered = text.replace('"epsilon":0.25', '"epsilon":0.35', 1)
    assert tampered != text
    path.write_text(tampered)


class TestAuditHead:
    def test_close_seals_the_exact_bytes(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        head_path = _seal_chain(path)
        head = json.loads(head_path.read_text())
        data = path.read_bytes()
        count, final = verify_audit_log(path)
        assert head == {
            "size": len(data),
            "seq": count,
            "hash": final,
            "sha256": hashlib.sha256(data).hexdigest(),
        }

    def test_flipped_byte_in_sealed_prefix(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        _seal_chain(path)
        _flip_prefix_byte(path)
        assert "tampered" in _same_error(path)

    def test_dropped_line(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        _seal_chain(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + lines[3:]))
        assert "sequence break" in _same_error(path)

    def test_truncation_below_sealed_size(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        _seal_chain(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        assert "unparseable" in _same_error(path)

    def test_garbage_tail_names_its_line(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        _seal_chain(path, count=6)
        with open(path, "a") as handle:
            handle.write("not json\n")
        message = _same_error(path)
        assert f"{path}:7: unparseable" in message

    @pytest.mark.parametrize("head_text", ["", "{not json", '{"size": 3}', "[]"])
    def test_corrupt_head(self, tmp_path, head_text):
        path = tmp_path / "audit.jsonl"
        head_path = _seal_chain(path)
        torn = head_path.read_text()[:20]
        for text in (head_text, torn):
            head_path.write_text(text)
            with AuditLog(path) as log:
                assert log.record("commit", epsilon=0.5)["seq"] == 7
            head_path.write_text(text)
            _flip_prefix_byte(path)
            assert "tampered" in _same_error(path)
            path.unlink()
            _seal_chain(path)

    @pytest.mark.parametrize("field, value", [("seq", "6"), ("seq", -1), ("hash", 0)])
    def test_mistyped_head_is_not_trusted(self, tmp_path, field, value):
        # Bound to the right bytes, but not a chain position: verify in full.
        path = tmp_path / "audit.jsonl"
        head_path = _seal_chain(path)
        document = json.loads(head_path.read_text())
        document[field] = value
        head_path.write_text(json.dumps(document))
        with AuditLog(path) as log:
            record = log.record("commit", epsilon=0.5)
        assert verify_audit_log(path) == (7, record["hash"])

    def test_head_from_another_chain(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        other = tmp_path / "other.jsonl"
        head_path = _seal_chain(path, count=6)
        other_head = _seal_chain(other, count=9, start=100)
        head_path.write_bytes(other_head.read_bytes())
        with AuditLog(path) as log:
            assert log.record("commit", epsilon=0.5)["seq"] == 7
        head_path.write_bytes(other_head.read_bytes())
        _flip_prefix_byte(path)
        assert "tampered" in _same_error(path)

    def test_records_after_the_head_resume_and_verify(self, tmp_path):
        # A writer that crashed before close left records the head does
        # not seal: they get the per-record checks and the chain goes on.
        path = tmp_path / "audit.jsonl"
        head_path = _seal_chain(path, count=6)
        stale = head_path.read_bytes()
        _seal_chain(path, count=3, start=6)
        head_path.write_bytes(stale)
        with AuditLog(path) as log:
            record = log.record("commit", epsilon=0.5)
        assert record["seq"] == 10
        assert verify_audit_log(path) == (10, record["hash"])
        assert json.loads(head_path.read_text())["seq"] == 10

    def test_resume_cost_is_the_unsealed_records_only(self, tmp_path, monkeypatch):
        path = tmp_path / "audit.jsonl"
        head_path = _seal_chain(path, count=20_000)
        calls = []
        original = audit_module._chain_hash

        def counting(record):
            calls.append(record["seq"])
            return original(record)

        monkeypatch.setattr(audit_module, "_chain_hash", counting)
        AuditLog(path).close()
        assert calls == []

        stale = head_path.read_bytes()
        with AuditLog(path) as log:
            for _ in range(3):
                log.record("commit", epsilon=0.5)
        head_path.write_bytes(stale)
        del calls[:]
        log = AuditLog(path)
        log.close()
        assert calls == [20_001, 20_002, 20_003]

        head_path.unlink()
        del calls[:]
        AuditLog(path).close()
        assert len(calls) == 20_003

    def test_verify_and_replay_ignore_the_head(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        head_path = _seal_chain(path)
        document = json.loads(head_path.read_text())
        _flip_prefix_byte(path)
        # A head forged to match the altered bytes is trusted on open, but
        # the operator's tools still check every record.
        document["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        head_path.write_text(json.dumps(document))
        AuditLog(path).close()
        with pytest.raises(AuditChainError, match="tampered"):
            verify_audit_log(path)
        with pytest.raises(AuditChainError, match="tampered"):
            replay_spend(path)


# ---------------------------------------------------------------------------
# Spend replay
# ---------------------------------------------------------------------------
class TestReplaySpend:
    def test_commit_only_positive_epsilon_charges(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            log.record("reserve", budget="dataset:d", dataset="d",
                       kind="mean", epsilon=1.0, analyst="alice")
            log.record("commit", budget="dataset:d", dataset="d",
                       kind="mean", epsilon=0.5, analyst="alice")
            log.record("commit", budget="dataset:d", dataset="d",
                       kind="mean", epsilon=0.0, analyst="alice")  # no charge
            log.record("refuse", budget="dataset:d", dataset="d",
                       kind="iqr", analyst="bob", reason="budget_exceeded")
            log.record("commit", budget="group:g", dataset="e",
                       kind="iqr", epsilon=0.25, analyst=None)
        report = replay_spend(path)
        assert report["records"] == 5
        assert report["events"] == {"commit": 3, "refuse": 1, "reserve": 1}
        assert report["owners"] == {
            "dataset:d": {"spent": 0.5, "analysts": {"alice": 0.5}},
            "group:g": {"spent": 0.25, "analysts": {}},
        }
        assert report["kinds"] == {"iqr": 0.25, "mean": 0.5}

    def test_float_totals_reproduce_addition_order_bitwise(self, tmp_path):
        # 0.1 is not representable; repeated addition is order- and
        # rounding-sensitive, exactly what "bit-for-bit" must survive.
        path = tmp_path / "audit.jsonl"
        spends = [0.1, 0.2, 0.3, 0.1, 0.7, 0.123456789]
        expected = 0.0
        with AuditLog(path) as log:
            for epsilon in spends:
                log.record("commit", budget="dataset:d", dataset="d",
                           kind="mean", epsilon=epsilon)
                expected += epsilon
        report = replay_spend(path)
        assert report["owners"]["dataset:d"]["spent"] == expected  # exact ==

    def test_empty_log_replays_empty(self, tmp_path):
        report = replay_spend(tmp_path / "missing.jsonl")
        assert report["records"] == 0
        assert report["owners"] == {} and report["kinds"] == {}

    def test_replay_refuses_tampered_log(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            log.record("commit", budget="dataset:d", dataset="d", epsilon=0.5)
        path.write_text(path.read_text().replace('0.5', '0.9'))
        with pytest.raises(AuditChainError):
            replay_spend(path)

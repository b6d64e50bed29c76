"""Per-layer table: turn recorded spans and ``/proc`` counts into metrics.

Conventions (each metric is 0.0 when its layer did no work in the window):

* ``*_us`` / ``*_ms`` named after one public function are the mean
  inclusive duration per call of that function;
* ``domain.to_grid_ms``, ``mechanisms.quantile_intervals_ms`` and the
  ``trials.*`` metrics are summed time per op (per trial for ``trials.*``);
  nested calls of the same group count once;
* ``executor.self_ms`` is the mean self time of the executor entry points:
  their duration minus the part their wrapped child calls cover;
* ``transport.unattributed_ms`` is the client's mean round trip minus the
  mean time per request the serving processes spent inside their top-level
  public calls; ``router.unattributed_ms`` is the round trip minus the
  router's mean forwarding time per request.
"""

from __future__ import annotations

import glob
import os
import pickle
from collections import defaultdict
from typing import Dict, List, Optional

#: Top-level calls a serving process makes for one request; whatever part of
#: the client's round trip they do not cover is transport.
SERVER_TOP = frozenset({
    "wire.parse_request", "qos.check", "executor.submit", "executor.submit_many",
    "executor.peek", "wire.answer_document", "trace.finish",
})

MEAN_PER_CALL = {
    "wire.parse_request_us": ("wire.parse_request", 1e-3),
    "wire.answer_document_us": ("wire.answer_document", 1e-3),
    "qos.check_us": ("qos.check", 1e-3),
    "trace.finish_us": ("trace.finish", 1e-3),
    "executor.submit_ms": ("executor.submit", 1e-6),
    "executor.submit_many_ms": ("executor.submit_many", 1e-6),
    "registry.reserve_us": ("registry.reserve", 1e-3),
    "registry.commit_us": ("registry.commit", 1e-3),
    "audit.record_us": ("audit.record", 1e-3),
    "estimators.mean_ms": ("estimators.mean", 1e-6),
    "estimators.variance_ms": ("estimators.variance", 1e-6),
    "estimators.iqr_ms": ("estimators.iqr", 1e-6),
    "estimators.quantile_ms": ("estimators.quantile", 1e-6),
    "engine.run_grid_ms": ("engine.run_grid", 1e-6),
    "router.forward_ms": ("router.forward", 1e-6),
    "rpc.reserve_ms": ("rpc.reserve", 1e-6),
    "rpc.commit_ms": ("rpc.commit", 1e-6),
    "coordinator.handle_us": ("coordinator.handle", 1e-3),
}

#: Every per-layer metric, in table order, with its unit.
METRICS = {
    "transport.unattributed_ms": "ms",
    "client.cpu_ms_per_op": "ms",
    "wire.parse_request_us": "us",
    "wire.answer_document_us": "us",
    "qos.check_us": "us",
    "trace.finish_us": "us",
    "executor.submit_ms": "ms",
    "executor.submit_many_ms": "ms",
    "executor.self_ms": "ms",
    "cache.hit_ratio": "ratio",
    "registry.reserve_us": "us",
    "registry.commit_us": "us",
    "audit.record_us": "us",
    "audit.records_per_op": "count",
    "estimators.mean_ms": "ms",
    "estimators.variance_ms": "ms",
    "estimators.iqr_ms": "ms",
    "estimators.quantile_ms": "ms",
    "mechanisms.quantile_intervals_ms": "ms",
    "domain.to_grid_ms": "ms",
    "proc.minor_faults_per_op": "count",
    "engine.run_grid_ms": "ms",
    "engine.cells_per_call": "count",
    "engine.parent_cpu_share": "ratio",
    "engine.worker_busy_share": "ratio",
    "engine.codec_fallbacks_per_call": "count",
    "router.forward_ms": "ms",
    "router.unattributed_ms": "ms",
    "rpc.reserve_ms": "ms",
    "rpc.commit_ms": "ms",
    "coordinator.handle_us": "us",
    "trials.estimator_ms": "ms",
    "trials.datagen_ms": "ms",
    "host.calib_ms": "ms",
    "trace.overhead_share": "ratio",
    "error_rate": "ratio",
}


def load_span_files(directory: str) -> List[dict]:
    """Every ``spans-<pid>.pkl`` the traced processes dumped (own files only)."""
    documents = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.pkl"))):
        with open(path, "rb") as handle:
            documents.append(pickle.load(handle))
    return documents


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    documents: List[dict],
    *,
    window_ns: tuple,
    requests: int,
    rtt_ms: float,
    ops: int,
    trials: int = 0,
    engine_parent: Optional[int] = None,
    workers: int = 1,
    usage=None,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Aggregate spans whose start falls in ``window_ns`` into the layer table."""
    start_ns, end_ns = window_ns
    window_s = (end_ns - start_ns) / 1e9
    totals: Dict[str, float] = defaultdict(float)  # name -> summed ns
    calls: Dict[str, int] = defaultdict(int)
    serving_top_ns = 0.0
    self_ns = 0.0
    executor_calls = 0
    hits = lookups = 0
    cells = grids = fallbacks = 0
    worker_busy_ns = 0.0
    grouped: Dict[str, float] = defaultdict(float)  # outermost-only groups

    for document in documents:
        spans = [s for s in document["spans"] if start_ns <= s[3] <= end_ns]
        by_id = {s[0]: s for s in spans}
        child_ns: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span[1]:
                child_ns[span[1]] += span[4] - span[3]
        serving = any(s[2].startswith("executor.") for s in spans)
        worker = document["role"] == "worker"
        for span_id, parent, name, begin, end, _tid, info in spans:
            duration = end - begin
            totals[name] += duration
            calls[name] += 1
            if serving and not parent and name in SERVER_TOP:
                serving_top_ns += duration
            if name.startswith("executor."):
                self_ns += duration - child_ns[span_id]
                executor_calls += 1
            elif name == "cache.lookup":
                lookups += 1
                hits += bool(info)
            elif name == "engine.run_grid":
                grids += 1
                cells += info or 0
            elif name == "engine.encode":
                fallbacks += info is not None and info != "pickle"
            elif name == "engine.execute_span" and worker:
                worker_busy_ns += duration
            if name in ("domain.to_grid", "mechanisms.quantile_intervals") or (
                name.startswith("estimators.") and worker
            ) or name == "trials.datagen":
                ancestor = by_id.get(parent)
                while ancestor is not None and ancestor[2] != name:
                    ancestor = by_id.get(ancestor[1])
                if ancestor is None:
                    key = "trials.estimator" if name.startswith("estimators.") else name
                    grouped[key] += duration

    table = {name: 0.0 for name in METRICS}
    for metric, (name, scale) in MEAN_PER_CALL.items():
        table[metric] = _ratio(totals[name], calls[name]) * scale
    table["transport.unattributed_ms"] = (
        rtt_ms - _ratio(serving_top_ns, requests) * 1e-6 if requests else 0.0
    )
    table["executor.self_ms"] = _ratio(self_ns, executor_calls) * 1e-6
    table["cache.hit_ratio"] = _ratio(hits, lookups)
    table["audit.records_per_op"] = _ratio(calls["audit.record"], ops)
    table["mechanisms.quantile_intervals_ms"] = (
        _ratio(grouped["mechanisms.quantile_intervals"], ops) * 1e-6
    )
    table["domain.to_grid_ms"] = _ratio(grouped["domain.to_grid"], ops) * 1e-6
    table["engine.cells_per_call"] = _ratio(cells, grids)
    table["engine.codec_fallbacks_per_call"] = _ratio(fallbacks, grids)
    table["engine.worker_busy_share"] = (
        _ratio(worker_busy_ns * 1e-9, window_s * workers) if workers > 1 else 0.0
    )
    if usage is not None and engine_parent is not None and grids:
        table["engine.parent_cpu_share"] = _ratio(
            usage.by_pid.get(engine_parent, 0.0), usage.cpu_s
        )
    if calls["router.forward"]:
        table["router.unattributed_ms"] = (
            rtt_ms - _ratio(totals["router.forward"], requests) * 1e-6
        )
    table["trials.estimator_ms"] = _ratio(grouped["trials.estimator"], trials) * 1e-6
    table["trials.datagen_ms"] = _ratio(grouped["trials.datagen"], trials) * 1e-6
    table.update(extra or {})
    return table


def format_table(table: Dict[str, float]) -> str:
    lines = [f"{'layer metric':<36} {'value':>14}  unit"]
    for name, unit in METRICS.items():
        lines.append(f"{name:<36} {table[name]:>14.6g}  {unit}")
    return "\n".join(lines)

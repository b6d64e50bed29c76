"""CI driver: boot `repro serve`, hammer it with mixed queries, audit the log.

Starts the service as a real subprocess on an ephemeral port — from a
multi-dataset ``--config`` file with a joint budget group, against either
front-end (``--frontend threaded|async``) — then drives a few hundred
queries covering every interesting outcome:

* distinct fresh queries (budget-charged releases),
* repeated identical queries (must be served from cache at zero spend),
* deliberately oversized queries (must yield structured 403 refusals),
* malformed queries and unknown datasets (400/404, never a 500),
* one batch request through the engine fan-out endpoint,
* the estimator-spec registry surface: ``GET /kinds`` advertising every
  registered kind, two ``baseline.*`` kinds released end-to-end with exact
  epsilon accounting and zero-spend repeats, an unknown kind answered with
  a structured 400 carrying the registered-kind list, and the per-dataset
  ``kinds`` allowlist rejecting a disallowed kind before any spend,
* joint-budget-group semantics: spend through one member, watch the shared
  cap drain for all of them, exhaust it, and see every member refuse with
  the group ledger unchanged,
* the ``/metrics`` Prometheus exposition, parsed and cross-checked against
  the JSON ``/datasets`` counters,
* the live control plane: authenticated ``/admin/state``, a provably no-op
  reload of the unchanged config, a live reload that adds a dataset and
  rotates an analyst budget without a restart, and the drain flow (cached
  answers served, fresh releases 403, drained dataset then removed),
* per-analyst token-bucket rate limiting: a burst that draws structured
  429s while the budget ledger stays bit-for-bit unchanged,
* the observability surface: every answer echoes a trace id, a
  client-supplied ``X-Repro-Trace-Id`` round-trips into ``/debug/traces``
  and the ``repro trace`` CLI, a live reload drops the slow-query
  threshold to zero and the next query appears in the slow-query log,
  and ``repro audit spend --url`` replays the hash-chained audit trail to
  the server's live ledger totals bit-for-bit,
* raw-socket protocol probes: garbage / negative ``Content-Length`` (400),
  an oversized declared body (413), pipelined keep-alive requests,
  ``Expect: 100-continue`` (the interim response before the body, a 413
  instead for a body over the limit), two conflicting ``Content-Length``
  headers (400), and a mid-request disconnect (counted in the front-end
  stats, not crashed on),
* offline audit forensics after shutdown: ``repro audit verify`` accepts
  the intact chain and rejects a copy with a single flipped byte,
* a restart on the live chain: the clean shutdown sealed it
  (``<audit_log>.head``), a re-boot resumes it, answers one query and stops,
  and the chain still verifies with ``seq`` continuing; a boot on a copy
  whose sealed prefix has one flipped byte exits non-zero with a clean
  ``tampered`` error.

Fails (exit 1) if any expectation is violated or if the server log contains
a stack trace.  Run from the repo root::

    PYTHONPATH=src python scripts/serve_and_drive.py [--queries 200]
    PYTHONPATH=src python scripts/serve_and_drive.py --frontend async
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

FAILURES: list = []

MAX_BODY = 262_144  # small enough to probe 413 without shipping megabytes
ADMIN_TOKEN = "ci-secret"  # shared secret for the /admin control plane


def check(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def call(url: str, path: str, payload=None, timeout: float = 30.0,
         token=None, method=None, headers=None):
    """POST/GET JSON; returns (http_status, decoded_body)."""
    if method is None:
        method = "POST" if payload is not None else "GET"
    data = None
    if method == "POST":
        data = b"" if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json", **(headers or {})}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url + path, data=data, headers=headers,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def call_text(url: str, path: str, timeout: float = 30.0):
    """GET a plain-text resource; returns (status, content_type, text)."""
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return (response.status, response.headers.get("Content-Type", ""),
                response.read().decode())


def error_code(body) -> str:
    """The v1 envelope's error.code (refusals, rejections, 4xx)."""
    error = body.get("error")
    return error.get("code", "") if isinstance(error, dict) else str(error)


def write_deployment(tmp: Path, budget: float, frontend: str, audit_log: Path,
                     records: int = 5000) -> Path:
    """Write the CSV + NPY sources and the multi-dataset serving config."""
    generator = random.Random(7)
    with open(tmp / "data.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "value"])
        for index in range(records):
            writer.writerow([index, f"{generator.lognormvariate(11.0, 0.5):.2f}"])
    try:
        import numpy as np

        np.save(tmp / "left.npy", np.asarray(
            [generator.gauss(10.0, 2.0) for _ in range(2000)]))
        np.save(tmp / "right.npy", np.asarray(
            [generator.gauss(20.0, 3.0) for _ in range(2000)]))
    except ImportError:  # pragma: no cover - numpy is a hard dependency anyway
        raise SystemExit("numpy is required to build the driver datasets")
    # JSON (not TOML) so the driver can hold the exact document it booted
    # from and derive byte-identical reload payloads for the control-plane
    # phases.  Rate limits cover only the "burster" analyst, so the main
    # drive traffic never draws a 429.
    document = {
        "service": {
            "seed": 7,
            "port": 0,
            "frontend": frontend,
            "max_body": MAX_BODY,
        },
        "groups": {"shared": {"budget": 1.0}},
        "datasets": [
            {"name": "demo", "source": "data.csv", "column": "value",
             "budget": budget},
            {"name": "left", "source": "left.npy", "group": "shared",
             "kinds": ["mean", "baseline.bounded_laplace_mean"]},
            {"name": "right", "source": "right.npy", "group": "shared"},
        ],
        "admin": {"token": ADMIN_TOKEN},
        "limits": {"analysts": {"burster": {"rate": 0.001, "burst": 2}}},
        # Tracing on from boot; the slow-query threshold starts high (the
        # observability phase hot-drops it to 0.0 via /admin/reload) and the
        # audit trail covers the server's whole lifetime so the replay
        # cross-check can account for every commit.
        "observability": {
            "trace_ring": 512,
            "slow_query_ms": 60_000.0,
            "audit_log": str(audit_log),
        },
    }
    config = tmp / "serving.json"
    config.write_text(json.dumps(document, indent=2))
    return config, document


def start_server(config: Path, log_path: Path) -> tuple:
    log_handle = open(log_path, "w")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--config", str(config)],
        stdout=log_handle,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 30.0
    url = None
    while time.time() < deadline and url is None:
        if process.poll() is not None:
            break
        match = re.search(r"listening on (http://\S+)", log_path.read_text())
        if match:
            url = match.group(1)
        else:
            time.sleep(0.1)
    return process, log_handle, url


def stop_server(process: subprocess.Popen, log_handle) -> None:
    """SIGINT takes ``repro serve``'s clean shutdown path (which seals the chain)."""
    process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    log_handle.close()


def drive(url: str, total_queries: int) -> None:
    statuses = {"ok": 0, "refused": 0, "cached": 0, "client_error": 0}

    # Phase 1: distinct fresh releases (small epsilons so the budget lasts).
    fresh = []
    kinds = ["mean", "variance", "iqr", "quantile"]
    for index in range(max(total_queries // 8, 8)):
        kind = kinds[index % 4]
        query = {"dataset": "demo", "kind": kind, "epsilon": 0.02 + 0.001 * index}
        if kind == "quantile":
            query["params"] = {"levels": [0.5, 0.9]}
        fresh.append(query)
    released = []
    for query in fresh:
        status, body = call(url, "/query", query)
        check(status in (200, 403), f"fresh query gave HTTP {status}: {body}")
        check("status" in body, f"missing status field: {body}")
        if body.get("status") == "ok":
            statuses["ok"] += 1
            check(not body.get("cached"), f"first release claims cached: {body}")
            released.append(query)
        elif body.get("status") == "refused":
            statuses["refused"] += 1

    check(len(released) >= 4, f"too few successful releases ({len(released)})")

    # Phase 2: repeats of released queries -> cache hits at zero spend.
    # Phases 3 and 4 contribute a fixed 15 queries; fill the rest with repeats.
    needed = total_queries - 15 - sum(statuses.values())
    for repeats in range(max(needed, 0)):
        query = released[repeats % len(released)]
        status, body = call(url, "/query", query)
        check(status == 200, f"repeat gave HTTP {status}: {body}")
        check(body.get("cached") is True, f"repeat was not served from cache: {body}")
        check(body.get("epsilon_charged") == 0.0, f"cache hit charged epsilon: {body}")
        statuses["cached"] += 1

    # Phase 3: queries that cannot fit the remaining budget -> refusals.
    for _ in range(10):
        status, body = call(
            url, "/query", {"dataset": "demo", "kind": "mean", "epsilon": 100.0}
        )
        check(status == 403, f"over-budget query gave HTTP {status}: {body}")
        check(body.get("status") == "refused", f"expected refusal: {body}")
        check(error_code(body) == "budget_exceeded", f"wrong refusal code: {body}")
        statuses["refused"] += 1

    # Phase 4: malformed / unknown requests -> clean 4xx, never 5xx.
    bad_cases = [
        ({"dataset": "ghost", "kind": "mean", "epsilon": 0.1}, 404),
        ({"dataset": "demo", "kind": "mode", "epsilon": 0.1}, 400),
        ({"dataset": "demo", "kind": "mean", "epsilon": -1.0}, 400),
        ({"dataset": "demo", "kind": "quantile", "epsilon": 0.1}, 400),
        ({"dataset": "demo", "kind": "mean"}, 400),
    ]
    for payload, expected in bad_cases:
        status, body = call(url, "/query", payload)
        check(status == expected, f"{payload} gave HTTP {status} (wanted {expected})")
        statuses["client_error"] += 1

    # Phase 5: one batch through the fan-out endpoint, duplicates coalesced.
    batch = {"queries": [released[0], released[0], released[1 % len(released)]]}
    status, body = call(url, "/query", batch)
    check(status == 200, f"batch gave HTTP {status}")
    answers = body.get("answers", [])
    check(len(answers) == 3, f"batch returned {len(answers)} answers")
    check(all(a.get("status") == "ok" for a in answers), f"batch answers: {answers}")

    # Final accounting must be consistent.
    status, body = call(url, "/datasets")
    check(status == 200, "datasets snapshot failed")
    demo = next(d for d in body["datasets"] if d["name"] == "demo")
    budget = demo["budget"]
    check(budget["spent"] <= budget["capacity"] + 1e-6,
          f"spent {budget['spent']} exceeds capacity {budget['capacity']}")
    check(budget["reserved"] == 0.0, f"dangling reservation: {budget}")
    cache = body["cache"]
    check(cache["hits"] >= statuses["cached"],
          f"cache hits {cache['hits']} < expected {statuses['cached']}")

    total = sum(statuses.values())
    print(f"drove {total} queries: {statuses}")
    check(total >= total_queries * 0.9, f"only drove {total} of {total_queries}")
    check(statuses["cached"] >= total_queries // 2, "too few cache hits exercised")
    check(statuses["refused"] >= 10, "too few refusals exercised")


def drive_baseline_kinds(url: str) -> None:
    """Registry surface: GET /kinds, two baseline releases, allowlist, 400s."""
    status, catalogue = call(url, "/kinds")
    check(status == 200, f"GET /kinds failed: HTTP {status}")
    kinds = catalogue.get("kinds", {})
    baselines = sorted(k for k in kinds if k.startswith("baseline."))
    check(len(baselines) >= 4, f"expected >= 4 baseline kinds, got {baselines}")
    check("mean" in kinds and kinds["mean"]["min_records"] == 8,
          f"builtin kinds missing from catalogue: {sorted(kinds)}")
    check(catalogue.get("datasets", {}).get("left") ==
          ["baseline.bounded_laplace_mean", "mean"],
          f"allowlist not advertised: {catalogue.get('datasets')}")

    # Two baseline kinds released end-to-end with exact budget accounting.
    released = []
    for kind, params in (
        ("baseline.bounded_laplace_mean", {"radius": 1e6}),
        ("baseline.finite_domain_laplace_mean", {"domain_size": 1_000_000}),
    ):
        query = {"dataset": "demo", "kind": kind, "epsilon": 0.05, "params": params}
        status, body = call(url, "/query", query)
        check(status == 200 and body.get("status") == "ok",
              f"{kind} release failed: HTTP {status} {body}")
        check(abs(body.get("epsilon_charged", 0.0) - 0.05) < 1e-12,
              f"{kind} charged {body.get('epsilon_charged')} != 0.05")
        released.append((kind, query, body))

    # Zero-spend repeats, with param values respelled (int vs float forms):
    # canonicalisation must map both spellings to the same cache entry.
    respelled = {"radius": 1_000_000, "domain_size": 1_000_000.0}
    for kind, query, body in released:
        repeat_query = dict(query)
        repeat_query["params"] = {
            name: respelled.get(name, value)
            for name, value in query["params"].items()
        }
        status, repeat = call(url, "/query", repeat_query)
        check(repeat.get("cached") is True and repeat.get("epsilon_charged") == 0.0,
              f"{kind} repeat not cached at zero spend: {repeat}")
        check(repeat.get("value") == body.get("value"),
              f"{kind} cached value changed: {repeat}")

    # Unknown kind: structured 400 listing the registered kinds.
    status, body = call(url, "/query",
                        {"dataset": "demo", "kind": "mode", "epsilon": 0.1})
    check(status == 400 and error_code(body) == "unknown_kind",
          f"unknown kind not a structured 400: HTTP {status} {body}")
    listed = body.get("error", {}).get("detail", {}).get("kinds", [])
    check(sorted(listed) == sorted(kinds),
          "400 body kind list drifts from GET /kinds")

    # Missing required parameter: clean 400 before any spend.
    status, body = call(url, "/query",
                        {"dataset": "demo", "kind": "baseline.coinpress_mean",
                         "epsilon": 0.1})
    check(status == 400, f"missing param gave HTTP {status}: {body}")

    # Per-dataset allowlist: 'left' serves only mean + bounded_laplace_mean.
    _, before = call(url, "/datasets")
    left_spent = next(d for d in before["datasets"] if d["name"] == "left")
    status, body = call(url, "/query",
                        {"dataset": "left", "kind": "iqr", "epsilon": 0.05})
    check(status == 400 and body.get("status") == "invalid",
          f"disallowed kind not rejected: HTTP {status} {body}")
    _, after = call(url, "/datasets")
    left_after = next(d for d in after["datasets"] if d["name"] == "left")
    check(left_after["budget"]["spent"] == left_spent["budget"]["spent"],
          "disallowed kind changed the ledger")
    check(left_after.get("kinds") == ["baseline.bounded_laplace_mean", "mean"],
          f"dataset allowlist not reported: {left_after.get('kinds')}")
    print(f"baseline kinds served: {[k for k, _, _ in released]}; "
          f"{len(baselines)} baseline kinds advertised")


def drive_joint_group(url: str) -> None:
    """Joint budget group: one cap spans 'left' and 'right'."""
    status, body = call(url, "/query", {"dataset": "left", "kind": "mean",
                                        "epsilon": 0.3})
    check(status == 200 and body.get("status") == "ok",
          f"joint-group release failed: {body}")

    status, body = call(url, "/datasets")
    members = {d["name"]: d for d in body["datasets"] if d["name"] in ("left", "right")}
    check(members["left"]["group"] == members["right"]["group"] == "shared",
          f"members not in group: {members}")
    check(members["left"]["budget"]["spent"] == members["right"]["budget"]["spent"],
          "group spend not shared across members")
    check(members["left"]["budget"]["spent"] > 0, "group spend not recorded")
    groups = body.get("groups", {})
    check("shared" in groups and sorted(groups["shared"]["datasets"]) == ["left", "right"],
          f"groups snapshot wrong: {groups}")

    # Exhaust the 1.0 cap with distinct queries through one member.
    exhausted = False
    for step in range(12):
        status, body = call(url, "/query", {"dataset": "left", "kind": "mean",
                                            "epsilon": 0.31 + step / 1000})
        if body.get("status") == "refused":
            exhausted = True
            break
    check(exhausted, "joint cap never exhausted")

    _, before = call(url, "/datasets")
    group_before = before["groups"]["shared"]["budget"]
    # Every member must now refuse a query the remaining cap cannot fit...
    for offset, dataset in enumerate(("left", "right")):
        status, body = call(url, "/query", {"dataset": dataset, "kind": "mean",
                                            "epsilon": 0.5 + offset / 1000})
        check(status == 403 and error_code(body) == "budget_exceeded",
              f"joint-cap refusal missing on {dataset}: HTTP {status} {body}")
    # ...with the shared ledger unchanged by the refusals.
    _, after = call(url, "/datasets")
    group_after = after["groups"]["shared"]["budget"]
    check(group_after["spent"] == group_before["spent"],
          f"refusals changed the group ledger: {group_before} -> {group_after}")
    check(group_after["reserved"] == 0.0, f"dangling group reservation: {group_after}")
    print(f"joint group exhausted cleanly at spent={group_after['spent']:.3f}")


def drive_metrics(url: str) -> None:
    """Scrape /metrics and cross-check it against the JSON /datasets view."""
    status, content_type, text = call_text(url, "/metrics")
    check(status == 200, f"GET /metrics gave HTTP {status}")
    check(content_type.startswith("text/plain"),
          f"/metrics content type: {content_type!r}")
    check("Traceback" not in text, "/metrics body contains a traceback")

    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        check(bool(name_labels) and value not in ("", None),
              f"unparseable /metrics line: {line!r}")
        check(name_labels not in samples, f"duplicate /metrics sample: {line!r}")
        samples[name_labels] = float(value)

    _, body = call(url, "/datasets")
    cache = body["cache"]
    check(samples.get("repro_cache_hits_total") == cache["hits"],
          f"cache hits drift: /metrics {samples.get('repro_cache_hits_total')} "
          f"vs /datasets {cache['hits']}")
    check(samples.get("repro_cache_misses_total") == cache["misses"],
          "cache misses drift between /metrics and /datasets")
    for dataset in body["datasets"]:
        key = f'repro_budget_spent_epsilon{{dataset="{dataset["name"]}"}}'
        check(abs(samples.get(key, -1.0) - dataset["budget"]["spent"]) < 1e-9,
              f"budget gauge drift for {dataset['name']}: {samples.get(key)}")
    histogram_counts = [v for k, v in samples.items()
                       if k.startswith("repro_request_latency_seconds_count")]
    check(bool(histogram_counts) and sum(histogram_counts) > 0,
          "no latency histogram samples exported")
    print(f"/metrics scraped: {len(samples)} samples cross-checked")


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run `repro <argv>` as a subprocess (inherits PYTHONPATH=src)."""
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, timeout=60)


def drive_observability(url: str, config_path: Path, document: dict,
                        server_log: Path, audit_log: Path) -> None:
    """Tracing + audit trail: echo, /debug/traces, slow log, exact replay.

    Must run while every dataset that ever spent budget is still registered —
    the ``repro audit spend --url`` cross-check reconciles the full replay
    against the live ledgers, so it precedes the control-plane phase that
    removes a spent dataset.
    """
    # A client-supplied trace id is honoured and echoed on the answer.
    trace_id = "ci-trace-0001"
    status, body = call(url, "/query",
                        {"dataset": "demo", "kind": "mean", "epsilon": 0.0131},
                        headers={"X-Repro-Trace-Id": trace_id})
    check(status == 200 and body.get("trace") == trace_id,
          f"trace id not echoed: HTTP {status} {body}")

    # Minted ids: every answer carries one even without the header.
    status, body = call(url, "/query",
                        {"dataset": "demo", "kind": "mean", "epsilon": 0.0132})
    check(status == 200 and len(body.get("trace", "")) == 16,
          f"no minted trace id on answer: {body}")
    # ...including error documents.
    status, body = call(url, "/query", {"dataset": "demo", "epsilon": 0.1})
    check(status == 400 and len(body.get("trace", "")) == 16,
          f"400 document carries no trace id: HTTP {status} {body}")

    # The trace is inspectable over HTTP with per-stage spans.
    status, body = call(url, f"/debug/traces/{trace_id}")
    check(status == 200, f"GET /debug/traces/{trace_id} gave HTTP {status}")
    spans = [span["name"] for span in body.get("trace", {}).get("spans", [])]
    for name in ("parse", "admission", "engine", "commit", "serialize"):
        check(name in spans, f"span {name!r} missing from {spans}")
    status, body = call(url, "/debug/traces")
    check(status == 200 and body.get("tracing", {}).get("recorded", 0) > 0,
          f"/debug/traces listing failed: HTTP {status} {body}")

    # The CLI sees the same trace.
    listing = run_cli("trace", "--url", url)
    check(listing.returncode == 0 and trace_id in listing.stdout,
          f"`repro trace` listing failed: {listing.stdout}{listing.stderr}")
    single = run_cli("trace", trace_id, "--url", url)
    check(single.returncode == 0 and '"engine"' in single.stdout,
          f"`repro trace {trace_id}` failed: {single.stdout}{single.stderr}")

    # Hot-drop the slow-query threshold to 0.0 through a live reload; the
    # very next query must land in the slow-query log.
    slow_document = json.loads(json.dumps(document))
    slow_document["observability"]["slow_query_ms"] = 0.0
    config_path.write_text(json.dumps(slow_document, indent=2))
    status, body = call(url, "/admin/reload", token=ADMIN_TOKEN, method="POST")
    applied = [change["action"] for change in body.get("applied", [])]
    check(status == 200 and applied == ["update_observability"],
          f"slow-threshold reload applied {applied}: HTTP {status} {body}")
    slow_id = "ci-slow-0001"
    status, body = call(url, "/query",
                        {"dataset": "demo", "kind": "mean", "epsilon": 0.0133},
                        headers={"X-Repro-Trace-Id": slow_id})
    check(status == 200, f"slow-logged query failed: HTTP {status} {body}")
    deadline = time.time() + 5.0
    logged = False
    while time.time() < deadline and not logged:
        logged = f"slow query trace={slow_id} " in server_log.read_text()
        if not logged:
            time.sleep(0.1)
    check(logged, f"no slow-query line for trace={slow_id} in the server log")
    # Restore the booted threshold so later phases see a quiet log and the
    # control-plane no-op-reload check still holds.
    config_path.write_text(json.dumps(document, indent=2))
    status, body = call(url, "/admin/reload", token=ADMIN_TOKEN, method="POST")
    applied = [change["action"] for change in body.get("applied", [])]
    check(status == 200 and applied == ["update_observability"],
          f"slow-threshold restore applied {applied}: HTTP {status} {body}")

    # The audit trail replays to the live ledgers bit-for-bit.
    spend = run_cli("audit", "spend", str(audit_log), "--url", url)
    check(spend.returncode == 0 and "cross_check=ok" in spend.stdout,
          f"audit replay cross-check failed:\n{spend.stdout}{spend.stderr}")
    print("observability: trace echo, /debug/traces, CLI, slow-query log, "
          "and bit-exact audit replay all passed")


def verify_chain(audit_log: Path) -> dict:
    """``repro audit verify``'s ``key=value`` report (``records``, ``chain``...)."""
    verify = run_cli("audit", "verify", str(audit_log))
    check(verify.returncode == 0 and "chain=ok" in verify.stdout,
          f"audit verify failed:\n{verify.stdout}{verify.stderr}")
    return dict(line.split("=", 1) for line in verify.stdout.split() if "=" in line)


def flip_epsilon_byte(audit_log: Path) -> bytes:
    """The log's bytes with one digit of its first epsilon value changed."""
    raw = bytearray(audit_log.read_bytes())
    target = raw.find(b'"epsilon":')
    check(target >= 0, "no epsilon field found in the audit log")
    flip = target + len(b'"epsilon":') + 2
    raw[flip] = ord("9") if raw[flip] != ord("9") else ord("7")
    return bytes(raw)


def audit_offline_checks(audit_log: Path, tmp: Path) -> None:
    """Post-shutdown forensics: the chain verifies; one flipped byte fails."""
    verify_chain(audit_log)
    tampered = tmp / "tampered.jsonl"
    tampered.write_bytes(flip_epsilon_byte(audit_log))
    forged = run_cli("audit", "verify", str(tampered))
    check(forged.returncode == 1 and "tampered" in forged.stderr,
          f"flipped byte not detected: rc={forged.returncode} "
          f"{forged.stdout}{forged.stderr}")
    print("audit forensics: intact chain verifies; a flipped byte is detected")


def audit_restart_checks(config: Path, document: dict, audit_log: Path,
                         tmp: Path) -> None:
    """Re-boot on the sealed chain; then refuse to boot on a tampered copy."""
    head = audit_log.with_name(audit_log.name + ".head")
    check(head.exists(), f"clean shutdown left no chain head at {head}")
    before = verify_chain(audit_log)

    log_path = tmp / "restart.log"
    process, log_handle, url = start_server(config, log_path)
    try:
        check(url is not None, f"restart never came up:\n{log_path.read_text()}")
        if url is not None:
            status, body = call(url, "/query",
                                {"dataset": "demo", "kind": "mean", "epsilon": 0.05})
            check(status == 200 and body.get("status") == "ok",
                  f"restarted server did not answer: HTTP {status} {body}")
    finally:
        stop_server(process, log_handle)
    log_text = log_path.read_text()
    check("Traceback" not in log_text and process.returncode == 0,
          f"restart exited {process.returncode}:\n{log_text}")
    after = verify_chain(audit_log)
    count = int(before.get("records", 0))
    check(int(after.get("records", 0)) > count,
          f"restart appended nothing: {before} -> {after}")
    resumed = json.loads(audit_log.read_text().splitlines()[count])
    check(resumed["seq"] == count + 1 and resumed["prev"] == before.get("final_hash"),
          f"restart did not continue the chain: {resumed}")

    tampered = tmp / "tampered_live.jsonl"
    tampered.write_bytes(flip_epsilon_byte(audit_log))
    tampered.with_name(tampered.name + ".head").write_bytes(head.read_bytes())
    forged_document = dict(document, observability=dict(
        document["observability"], audit_log=str(tampered)))
    forged_config = tmp / "tampered.json"
    forged_config.write_text(json.dumps(forged_document, indent=2))
    try:
        boot = run_cli("serve", "--config", str(forged_config))
    except subprocess.TimeoutExpired:
        check(False, "server booted on a tampered chain")
        return
    output = boot.stdout + boot.stderr
    check(boot.returncode != 0 and "tampered" in boot.stderr
          and "Traceback" not in output,
          f"tampered chain boot: rc={boot.returncode}\n{output}")
    print(f"restart: chain resumed at seq {count + 1} and verifies; "
          "a tampered sealed prefix refuses to boot")


def drive_control_plane(url: str, config_path: Path, document: dict) -> None:
    """Authenticated /admin: no-op reload, live add + rotate, drain + remove."""
    status, body = call(url, "/admin/state")
    check(status == 401, f"unauthenticated /admin/state gave HTTP {status}")
    status, body = call(url, "/admin/state", token="wrong-secret")
    check(status == 401 and error_code(body) == "unauthorized",
          f"bad-token /admin/state: HTTP {status} {body}")
    status, body = call(url, "/admin/state", token=ADMIN_TOKEN)
    check(status == 200 and body.get("admin", {}).get("enabled") is True,
          f"/admin/state failed: HTTP {status} {body}")
    check(body["admin"]["draining"] == [], f"unexpected drains: {body['admin']}")

    # Reloading the unchanged booted file must be a provable no-op.
    status, body = call(url, "/admin/reload", token=ADMIN_TOKEN, method="POST")
    check(status == 200 and body.get("applied") == [] and body.get("unchanged"),
          f"unchanged reload was not a no-op: HTTP {status} {body}")

    # Live reload: add a dataset and rotate an analyst budget, no restart.
    document["datasets"].append(
        {"name": "hot", "values": [float(v) for v in range(64)], "budget": 1.0})
    document["datasets"][0]["analyst_budgets"] = {"vip": 0.2}
    config_path.write_text(json.dumps(document, indent=2))
    status, body = call(url, "/admin/reload", token=ADMIN_TOKEN, method="POST")
    applied = sorted(change["action"] for change in body.get("applied", []))
    check(status == 200 and applied == ["add_dataset", "rotate_analyst_budgets"],
          f"live reload applied {applied}: HTTP {status} {body}")

    hot_query = {"dataset": "hot", "kind": "mean", "epsilon": 0.25}
    status, body = call(url, "/query", hot_query)
    check(status == 200 and body.get("status") == "ok",
          f"dataset added by live reload does not serve: HTTP {status} {body}")
    status, body = call(url, "/query",
                        {"dataset": "demo", "kind": "mean", "epsilon": 0.5,
                         "analyst": "vip"})
    check(status == 403 and body.get("status") == "refused",
          f"rotated analyst cap not enforced: HTTP {status} {body}")

    # Drain: cached answers keep serving, fresh releases refuse, then remove.
    status, body = call(url, "/admin/drain", {"dataset": "hot"},
                        token=ADMIN_TOKEN)
    check(status == 200 and body.get("dataset", {}).get("draining") is True,
          f"drain failed: HTTP {status} {body}")
    status, body = call(url, "/query", hot_query)
    check(status == 200 and body.get("cached") is True,
          f"drained dataset dropped its cached answer: HTTP {status} {body}")
    status, body = call(url, "/query", dict(hot_query, epsilon=0.35))
    check(status == 403 and error_code(body) == "draining",
          f"drained dataset admitted a fresh release: HTTP {status} {body}")

    document["datasets"] = [d for d in document["datasets"]
                            if d["name"] != "hot"]
    config_path.write_text(json.dumps(document, indent=2))
    status, body = call(url, "/admin/reload", token=ADMIN_TOKEN, method="POST")
    applied = [change["action"] for change in body.get("applied", [])]
    check(status == 200 and applied == ["remove_dataset"],
          f"drained removal applied {applied}: HTTP {status} {body}")
    status, body = call(url, "/query", hot_query)
    check(status == 404 and error_code(body) == "unknown_dataset",
          f"removed dataset still answers: HTTP {status} {body}")
    print("control plane: no-op reload, live add+rotate, drain+remove all passed")


def drive_rate_limit(url: str) -> None:
    """Burst past the 'burster' analyst's bucket; the ledger must not move."""
    admitted, limited = 0, 0
    before = None
    for step in range(4):
        if admitted >= 2 and before is None:
            _, snapshot = call(url, "/datasets")
            before = json.dumps(snapshot["datasets"], sort_keys=True)
        status, body = call(url, "/query",
                            {"dataset": "demo", "kind": "mean",
                             "epsilon": 0.011 + step / 1000,
                             "analyst": "burster"})
        if status == 429:
            limited += 1
            check(body.get("status") == "refused" and
                  error_code(body) == "rate_limited",
                  f"429 body malformed: {body}")
            check(body.get("epsilon_charged") == 0.0,
                  f"rate-limited request charged epsilon: {body}")
            check(body.get("retry_after", 0) > 0, f"no retry_after: {body}")
        else:
            admitted += 1
    check(limited >= 1, f"burst drew no 429s (admitted {admitted})")
    check(before is not None, "burst admitted fewer than its bucket size")
    _, snapshot = call(url, "/datasets")
    after = json.dumps(snapshot["datasets"], sort_keys=True)
    check(before == after,
          "429s changed the budget ledger:\n"
          f"before: {before}\nafter:  {after}")
    print(f"rate limit: {admitted} admitted, {limited} limited, ledger unchanged")


def _read_response(reader):
    """``(status, body, headers)`` of one response off a socket reader; ``None`` at EOF."""
    status_line = reader.readline()
    if not status_line:
        return None
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    return int(status_line.split()[1]), reader.read(length) if length else b"", headers


def _read_responses(sock: socket.socket, count: int):
    reader = sock.makefile("rb")
    responses = []
    for _ in range(count):
        response = _read_response(reader)
        if response is None:
            break
        responses.append(response)
    return responses


def head_probe_failures(address, limited_analyst=None) -> list:
    """``Expect: 100-continue``, conflicting ``Content-Length`` and refused-POST probes.

    Runs over raw sockets against any front door (``scripts/cluster_drive.py``
    runs it against the router) and returns the failed expectations.  With
    ``limited_analyst`` (an analyst whose rate-limit bucket the caller has
    drained), a query of theirs must draw a 429 with a ``Retry-After``.
    """
    failures = []
    body = json.dumps({"dataset": "no-such-dataset", "kind": "mean",
                       "epsilon": 0.1}).encode()
    head = (b"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n")
    try:
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(head % len(body))
            reader = sock.makefile("rb")
            interim = reader.readline() + reader.readline()
            if interim != b"HTTP/1.1 100 Continue\r\n\r\n":
                failures.append(f"100-continue: interim response {interim!r}")
            sock.sendall(body)
            response = _read_response(reader)
            if response is None or response[0] != 404:
                failures.append(f"100-continue: final response {response!r}")
        with socket.create_connection(address, timeout=10) as sock:
            # Refused by the declared size, before any interim response.
            sock.sendall(head % (64 << 20))
            response = _read_response(sock.makefile("rb"))
            if response is None or response[0] != 413:
                failures.append(f"100-continue over max_body: {response!r}")
        with socket.create_connection(address, timeout=10) as sock:
            # The first length frames a whole query, the second one byte more.
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
                         b"Content-Length: %d\r\n\r\n" % (len(body), len(body) + 1) + body)
            response = _read_response(sock.makefile("rb"))
            if response is None or response[0] != 400 \
                    or error_code(json.loads(response[1])) != "invalid_request":
                failures.append(f"conflicting Content-Length: {response!r}")
        with socket.create_connection(address, timeout=10) as sock:
            # A POST refused by path: its body must not be read as the next
            # request; the pipelined GET is answered, or the server hangs up.
            sock.sendall(b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"
                         b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            responses = _read_responses(sock, 2)
            codes = [response[0] for response in responses]
            if codes not in ([404], [404, 200]):
                failures.append(f"pipelined GET after a refused POST: {responses!r}")
        if limited_analyst is not None:
            limited = json.dumps({"dataset": "no-such-dataset", "kind": "mean",
                                  "epsilon": 0.1, "analyst": limited_analyst}).encode()
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(b"POST /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(limited) + limited)
                response = _read_response(sock.makefile("rb"))
            retry_after = response[2].get("retry-after", "") if response else ""
            if response is None or response[0] != 429 or not retry_after.isdigit() \
                    or int(retry_after) < 1:
                failures.append(f"429 without a Retry-After: {response!r}")
    except OSError as exc:
        failures.append(f"head probes: {type(exc).__name__}: {exc}")
    return failures


def drive_protocol_probes(url: str, frontend: str) -> None:
    """Raw-socket probes: malformed framing, oversized bodies, disconnects."""
    host, port = re.match(r"http://([^:]+):(\d+)", url).groups()
    address = (host, int(port))

    def probe(data: bytes, expected_status: int, label: str) -> None:
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(data)
            responses = _read_responses(sock, 1)
        check(bool(responses), f"{label}: no response")
        if responses:
            status, body, _ = responses[0]
            check(status == expected_status,
                  f"{label}: HTTP {status} (wanted {expected_status}): {body!r}")
            check(b"Traceback" not in body, f"{label}: traceback in body")

    probe(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
          400, "garbage Content-Length")
    probe(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: -12\r\n\r\n",
          400, "negative Content-Length")
    probe(f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {MAX_BODY * 10}\r\n\r\n".encode(),
          413, "oversized declared body")

    # Pipelined keep-alive: two requests in one write, two responses in order.
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
                     b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        responses = _read_responses(sock, 2)
    check(len(responses) == 2 and all(s == 200 for s, _, _ in responses),
          f"pipelined keep-alive broke: {responses}")

    # drive_rate_limit has drained the "burster" bucket.
    for failure in head_probe_failures(address, limited_analyst="burster"):
        check(False, failure)

    # Mid-request disconnect: promise 500 bytes, send 6, hang up.
    sock = socket.create_connection(address, timeout=10)
    sock.sendall(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n{\"par")
    sock.close()

    deadline = time.time() + 5.0
    disconnects = 0
    while time.time() < deadline:
        status, body = call(url, "/datasets")
        disconnects = body.get("frontend", {}).get("disconnects", 0)
        if disconnects >= 1:
            break
        time.sleep(0.1)
    check(disconnects >= 1, "mid-request disconnect was not counted")
    check(body.get("frontend", {}).get("frontend") == frontend,
          f"frontend mismatch: {body.get('frontend')}")

    # The server survived every probe.
    status, health = call(url, "/health")
    check(status == 200 and health.get("status") == "ok",
          f"server unhealthy after probes: {health}")
    print(f"protocol probes passed ({frontend}); disconnects counted: {disconnects}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--budget", type=float, default=3.0)
    parser.add_argument("--frontend", choices=["threaded", "async"],
                        default="threaded")
    parser.add_argument("--audit-log", type=Path, default=None,
                        help="where to write the audit trail (default: inside "
                             "the temp dir; point it somewhere durable to "
                             "keep the chain as a CI artifact)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        log_path = tmp_path / "server.log"
        if args.audit_log is not None:
            audit_log = args.audit_log.resolve()
            audit_log.parent.mkdir(parents=True, exist_ok=True)
            audit_log.unlink(missing_ok=True)  # a stale chain would not verify
            audit_log.with_name(audit_log.name + ".head").unlink(missing_ok=True)
        else:
            audit_log = tmp_path / "audit.jsonl"
        config, document = write_deployment(tmp_path, args.budget,
                                            args.frontend, audit_log)
        process, log_handle, url = start_server(config, log_path)
        try:
            check(url is not None, f"server never came up:\n{log_path.read_text()}")
            if url is not None:
                print(f"server at {url} (frontend={args.frontend})")
                drive(url, args.queries)
                drive_baseline_kinds(url)
                drive_joint_group(url)
                drive_metrics(url)
                drive_observability(url, config, document, log_path, audit_log)
                drive_control_plane(url, config, document)
                drive_rate_limit(url)
                drive_protocol_probes(url, args.frontend)
        finally:
            stop_server(process, log_handle)
        log_text = log_path.read_text()
        check("Traceback" not in log_text,
              f"server log contains a stack trace:\n{log_text}")
        check(process.returncode == 0, f"server exited with {process.returncode}")
        audit_offline_checks(audit_log, tmp_path)
        audit_restart_checks(config, document, audit_log, tmp_path)
        print("--- server log (tail) ---")
        print("\n".join(log_text.splitlines()[-25:]))

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

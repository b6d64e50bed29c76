"""CI driver: boot a 4-shard ``repro compose`` cluster, drive it, audit it.

Brings the whole sharded tier up the way an operator would — ``repro
compose --up`` as a real CLI subprocess spawning one coordinator, four
shard servers and one router — then drives a few hundred mixed queries
through the router and asserts the cluster's external contract:

* bit-for-bit answer parity, field by field (trace ids excluded), against
  a single-process service built from the same seed and the same data,
* repeated queries served from the owning shard's cache at zero spend,
* a batch request fanned out across shards and reassembled in order,
* unknown datasets (404), unknown kinds (400), malformed JSON (400) and
  registration attempts (403) answered structurally, never with a 500,
* the raw-socket head probes of ``scripts/serve_and_drive.py`` against the
  router: ``Expect: 100-continue`` and conflicting ``Content-Length``,
* joint-budget exhaustion: once the group ledger is drained, every member
  dataset refuses on every shard with ``budget_exceeded`` — and a
  concurrent refusal barrage leaves the coordinator's ledger bit-for-bit
  untouched (same spent, zero reserved) while a private-budget dataset
  keeps answering,
* fleet aggregation: ``/health`` totals, the ``/datasets`` cluster
  section, and the router's Prometheus exposition,
* clean teardown via ``repro compose --down``: state cleared, every pid
  reaped, no ``Traceback`` in any process log,
* offline forensics: ``repro audit verify`` accepts every shard's
  hash-chained audit log, and the chains are copied to ``--artifacts``
  for CI upload.

Fails (exit 1) if any expectation is violated.  Run from the repo root::

    PYTHONPATH=src python scripts/cluster_drive.py [--artifacts audit-logs]
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

from serve_and_drive import head_probe_failures

FAILURES: list = []

SEED = 20230115
SHARDS = 4
GROUP = "clinical"
GROUP_BUDGET = 60.0
MEMBERS = ("salaries", "heights", "bmi")
PRIVATE = "ages"
PRIVATE_BUDGET = 6.0
KINDS = ("mean", "variance", "iqr", "quantile")


def check(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def call(url: str, path: str, payload=None, timeout: float = 30.0,
         method=None):
    """POST/GET JSON; returns (http_status, decoded_body)."""
    if method is None:
        method = "POST" if payload is not None else "GET"
    data = None
    if method == "POST":
        data = b"" if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path, data=data,
        headers={"Content-Type": "application/json"}, method=method,
    )
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


def run_cli(*argv: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run `repro <argv>` as a subprocess (inherits PYTHONPATH=src)."""
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, timeout=timeout)


# ---------------------------------------------------------------------------
# deployment


def dataset_arrays():
    import numpy as np

    rng = np.random.default_rng(42)
    return {
        "salaries": rng.normal(52_000.0, 9_000.0, 4_000),
        "heights": rng.normal(170.0, 8.0, 4_000),
        "bmi": rng.normal(24.0, 3.0, 4_000),
        PRIVATE: rng.normal(41.0, 12.0, 4_000),
    }


def write_deployment(tmp: Path) -> Path:
    """Write the NPY sources and the 4-shard cluster template config."""
    import numpy as np

    arrays = dataset_arrays()
    for name, data in arrays.items():
        np.save(tmp / f"{name}.npy", data)
    config = {
        "service": {"seed": SEED, "cache_size": 256, "workers": 1},
        "datasets": [
            {"name": name, "source": f"{name}.npy", "group": GROUP}
            for name in MEMBERS
        ] + [
            {"name": PRIVATE, "source": f"{PRIVATE}.npy",
             "budget": PRIVATE_BUDGET},
        ],
        "groups": {GROUP: {"budget": GROUP_BUDGET}},
        "observability": {"trace_ring": 256, "audit_log": "audit.jsonl"},
        "cluster": {"shards": SHARDS},
    }
    path = tmp / "cluster.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def build_reference():
    """A single-process service under the same seed, data and ledgers."""
    from repro.service import QueryService

    service = QueryService(seed=SEED)
    service.registry.create_group(GROUP, GROUP_BUDGET)
    arrays = dataset_arrays()
    for name in MEMBERS:
        service.register(name, arrays[name], None, group=GROUP)
    service.register(PRIVATE, arrays[PRIVATE], PRIVATE_BUDGET)
    return service


# ---------------------------------------------------------------------------
# drive phases


def query_catalogue():
    """A deterministic mixed workload over every dataset and kind."""
    payloads = []
    for dataset in (*MEMBERS, PRIVATE):
        for index, kind in enumerate(KINDS):
            payload = {
                "dataset": dataset, "kind": kind,
                "epsilon": round(0.15 + 0.01 * index, 4),
                "analyst": f"analyst{index % 3}",
            }
            if kind == "quantile":
                payload["params"] = {"levels": [0.25, 0.5, 0.9]}
            payloads.append(payload)
    return payloads


def drive_parity(url: str, reference, queries: int) -> int:
    """Mixed queries through the router, field-by-field vs single-process.

    The same payload stream is submitted to both tiers in the same order,
    so every field must agree — values, keys, epsilon accounting, cache
    flags, even the draining ``remaining`` — except the trace id, which is
    minted per process.
    """
    from repro.service import wire

    catalogue = query_catalogue()
    driven = 0
    mismatches = 0
    for index in range(queries):
        payload = catalogue[index % len(catalogue)]
        status, doc = call(url, "/query", payload)
        expected = reference.submit(wire.parse_request(dict(payload)))
        expected_doc = wire.answer_document(expected)
        expected_status = wire.answer_status_code(expected)
        routed = {key: value for key, value in doc.items() if key != "trace"}
        if status != expected_status or routed != expected_doc:
            mismatches += 1
            check(False, (
                f"parity mismatch on {payload['dataset']}/{payload['kind']} "
                f"(query {index}): cluster ({status}) {routed} != "
                f"single-process ({expected_status}) {expected_doc}"
            ))
            if mismatches >= 3:
                check(False, "too many parity mismatches; aborting the phase")
                break
        driven += 1
    cached = catalogue[0]
    status, doc = call(url, "/query", cached)
    check(status == 200 and doc.get("cached") is True
          and doc.get("epsilon_charged") == 0.0,
          f"repeat was not a zero-spend cache hit: {doc}")
    driven += 1
    print(f"parity drive: {driven} queries, {mismatches} mismatches")
    return driven


def drive_batch(url: str, reference) -> int:
    """One batch spanning every shard, reassembled in submission order."""
    from repro.service import wire

    queries = query_catalogue()[: len(MEMBERS) * 2]
    status, doc = call(url, "/query", {"queries": queries})
    check(status == 200, f"batch through the router failed: {doc}")
    answers = doc.get("answers", [])
    check(len(answers) == len(queries),
          f"batch returned {len(answers)} answers for {len(queries)} queries")
    for payload, answer in zip(queries, answers):
        expected = reference.submit(wire.parse_request(dict(payload)))
        check(answer.get("dataset") == payload["dataset"]
              and answer.get("kind") == payload["kind"],
              f"batch order broken at {payload}: {answer}")
        expected_doc = wire.answer_document(expected)
        check(answer.get("value") == expected_doc["value"]
              and answer.get("key") == expected_doc.get("key"),
              f"batch parity broke on {payload['dataset']}/{payload['kind']}")
    return len(queries)


def drive_error_paths(url: str) -> int:
    """Structured 4xx for every malformed input — never a 500."""
    driven = 0
    status, doc = call(url, "/query",
                       {"dataset": "nope", "kind": "mean", "epsilon": 0.1})
    check(status == 404 and error_code(doc) == "unknown_dataset",
          f"unknown dataset: {status} {doc}")
    driven += 1
    status, doc = call(url, "/query",
                       {"dataset": MEMBERS[0], "kind": "sorcery",
                        "epsilon": 0.1})
    check(status == 400 and "mean" in doc.get("error", {}).get(
        "detail", {}).get("kinds", []),
          f"unknown kind should carry the registered-kind list: {doc}")
    driven += 1
    request = urllib.request.Request(
        url + "/query", data=b"{not json",
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        urllib.request.urlopen(request, timeout=10)
        check(False, "malformed JSON was accepted")
    except urllib.error.HTTPError as exc:
        body = json.loads(exc.read().decode())
        check(exc.code == 400 and error_code(body) == "invalid_request",
              f"malformed JSON: {exc.code} {body}")
    driven += 1
    status, doc = call(url, "/datasets",
                       {"name": "new", "values": [1.0, 2.0], "budget": 1.0})
    check(status == 403 and error_code(doc) == "registration_disabled",
          f"router registration: {status} {doc}")
    driven += 1
    print("error paths structured (404/400/400/403)")
    return driven


def drive_aggregation(url: str) -> None:
    """Fleet-level documents: /health totals, /datasets cluster, /metrics."""
    status, health = call(url, "/health")
    check(status == 200 and health.get("status") == "ok",
          f"cluster unhealthy: {health}")
    check(health.get("shards") == {"total": SHARDS, "healthy": SHARDS,
                                   "unreachable": []},
          f"shard totals wrong: {health.get('shards')}")
    status, stats = call(url, "/datasets")
    names = {entry["name"] for entry in stats.get("datasets", [])}
    check(names == {*MEMBERS, PRIVATE}, f"dataset union wrong: {names}")
    cluster = stats.get("cluster", {})
    check(len(cluster.get("shards", [])) == SHARDS
          and cluster.get("pinned") == [PRIVATE],
          f"cluster section wrong: {cluster}")
    status, content_type, text = call_text(url, "/metrics")
    check(status == 200 and "repro_router_requests_total" in text
          and f'repro_router_shard_up{{shard="{SHARDS - 1}"}} 1' in text,
          "router metrics exposition incomplete")
    print(f"aggregation verified: {SHARDS}/{SHARDS} shards healthy")


def drive_exhaustion(url: str, coordinator_host: str,
                     coordinator_port: int) -> int:
    """Drain the joint group, then prove refusals never touch the ledger."""
    from repro.cluster.rpc import CoordinatorClient

    driven = 0
    # burn the shared ledger down through whichever shards own the keys
    # (epsilon varies per attempt so every key is fresh — a repeat would be
    # a zero-spend cache hit and the ledger would never drain)
    for attempt in range(32):
        member = MEMBERS[attempt % len(MEMBERS)]
        status, doc = call(url, "/query",
                           {"dataset": member, "kind": "mean",
                            "epsilon": round(8.0 + 0.01 * attempt, 4)})
        driven += 1
        if status == 403:
            check(error_code(doc) == "budget_exceeded",
                  f"exhaustion refusal miscoded: {doc}")
            break
    else:
        check(False, "joint group never exhausted after 32 large queries")
        return driven

    client = CoordinatorClient(coordinator_host, coordinator_port)
    try:
        before = client.call("snapshot", owner=f"group:{GROUP}")["budget"]
        # concurrent refusal barrage: every member, every kind, many threads
        outcomes, lock = [], threading.Lock()

        def barrage(worker: int) -> None:
            for kind in KINDS[:3]:
                member = MEMBERS[worker % len(MEMBERS)]
                status, doc = call(url, "/query",
                                   {"dataset": member, "kind": kind,
                                    "epsilon": 10.0 + worker})
                with lock:
                    outcomes.append((status, error_code(doc)))

        threads = [threading.Thread(target=barrage, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        driven += len(outcomes)
        check(len(outcomes) == 24, f"barrage lost queries: {len(outcomes)}")
        check(all(outcome == (403, "budget_exceeded") for outcome in outcomes),
              f"non-refusal during exhaustion barrage: {set(outcomes)}")
        after = client.call("snapshot", owner=f"group:{GROUP}")["budget"]
        check(after["spent"] == before["spent"],
              f"refusals changed spent: {before['spent']} -> {after['spent']}")
        check(after["reserved"] == 0.0,
              f"reservations leaked: {after['reserved']}")
    finally:
        client.close()

    # the private dataset's shard-local ledger is a different ledger entirely
    status, doc = call(url, "/query",
                       {"dataset": PRIVATE, "kind": "mean", "epsilon": 0.3})
    driven += 1
    check(status == 200 and doc.get("status") == "ok",
          f"private dataset dragged down by group exhaustion: {doc}")
    print(f"exhaustion verified: ledger untouched by {len(outcomes)} "
          f"concurrent refusals (spent={after['spent']})")
    return driven


# ---------------------------------------------------------------------------
# teardown + forensics


def audit_offline_checks(deploy: Path, artifacts) -> None:
    """Verify every shard's hash chain; copy them out for CI upload."""
    chains = sorted(deploy.glob("audit.shard*.jsonl"))
    check(len(chains) == SHARDS,
          f"expected {SHARDS} audit chains, found {[c.name for c in chains]}")
    records = 0
    for chain in chains:
        result = run_cli("audit", "verify", str(chain))
        check(result.returncode == 0,
              f"audit verify rejected {chain.name}: {result.stdout} "
              f"{result.stderr}")
        records += sum(1 for line in chain.read_text().splitlines() if line)
    check(records > 0, "no shard wrote a single audit record")
    print(f"audit chains verified: {len(chains)} chains, {records} records")
    if artifacts is not None:
        artifacts.mkdir(parents=True, exist_ok=True)
        for chain in chains:
            shutil.copy2(chain, artifacts / chain.name)
        plan = deploy / "plan.json"
        if plan.exists():
            shutil.copy2(plan, artifacts / plan.name)
        print(f"audit chains copied to {artifacts}")


def scan_logs(deploy: Path) -> None:
    logs = sorted(deploy.glob("*.log"))
    check(len(logs) >= SHARDS + 2,
          f"expected logs for coordinator+shards+router, found "
          f"{[log.name for log in logs]}")
    for log in logs:
        text = log.read_text()
        check("Traceback" not in text,
              f"{log.name} contains a stack trace:\n{text[-2000:]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=160,
                        help="parity-phase query count (total driven is "
                             "higher: batch, error and exhaustion phases)")
    parser.add_argument("--artifacts", type=Path, default=None,
                        help="directory to copy the shard audit chains into "
                             "(for CI artifact upload)")
    args = parser.parse_args()
    artifacts = args.artifacts.resolve() if args.artifacts else None

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        deploy = tmp_path / "deploy"
        config_path = write_deployment(tmp_path)

        up = run_cli("compose", "--up", "--config", str(config_path),
                     "--dir", str(deploy), "--shards", str(SHARDS),
                     timeout=180.0)
        check(up.returncode == 0,
              f"compose --up failed ({up.returncode}):\n{up.stdout}\n"
              f"{up.stderr}")
        if up.returncode != 0:
            return 1
        plan = json.loads((deploy / "plan.json").read_text())
        url = f"http://{plan['host']}:{plan['router_port']}"
        print(f"cluster up: router at {url}, "
              f"coordinator at {plan['host']}:{plan['coordinator_port']}")

        total = 0
        try:
            ps = run_cli("compose", "--ps", "--dir", str(deploy))
            check(ps.returncode == 0 and ps.stdout.count(" up") == SHARDS + 2,
                  f"compose --ps disagrees:\n{ps.stdout}")
            reference = build_reference()
            total += drive_parity(url, reference, args.queries)
            total += drive_batch(url, reference)
            total += drive_error_paths(url)
            drive_aggregation(url)
            failures = head_probe_failures((plan["host"], plan["router_port"]))
            for failure in failures:
                check(False, f"router {failure}")
            if not failures:
                print("router head probes passed "
                      "(100-continue, conflicting Content-Length)")
            total += drive_exhaustion(
                url, plan["host"], plan["coordinator_port"]
            )
            check(total >= 200, f"drive too small: {total} queries")
            print(f"drove {total} queries through the router")
        finally:
            down = run_cli("compose", "--down", "--dir", str(deploy))
            check(down.returncode == 0,
                  f"compose --down failed:\n{down.stdout}\n{down.stderr}")
        check(not (deploy / "state.json").exists(),
              "state.json survived compose --down")
        ps = run_cli("compose", "--ps", "--dir", str(deploy))
        check(ps.returncode == 1, "compose --ps still reports a cluster")
        scan_logs(deploy)
        audit_offline_checks(deploy, artifacts)

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

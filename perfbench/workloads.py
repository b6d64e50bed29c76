"""The four workloads: inputs from the seed, load, and correctness checks.

Each workload returns a :class:`Outcome` with the end-to-end metrics of a
plain run, or, for a traced run, the per-layer table.  A traced run measures
two fresh systems for half the window each: untraced first (the baseline for
the tracing overhead and the source of the page-fault count) and then traced.

Inputs (datasets, query catalogue, epsilons) are a pure function of the
seed.  Answers are checked bit for bit against an in-process
``QueryService`` built from the same config, so every mismatch, transport
error or unexpected status counts as a failed op.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import layers
import procs

HERE = os.path.dirname(os.path.abspath(__file__))
TRACEHOOK = os.path.join(HERE, "tracehook")
NPROC = os.cpu_count() or 1

#: ``cpu_ms_per_op`` is the median over this many equal parts of the window:
#: a full garbage collection lands in at most one of them, so a rare pause
#: does not flip a run between two levels.
CPU_PARTS = 5

#: Set-ups per run whose median is ``setup_s``: (before, after) the window.
#: Host speed drifts over seconds, so set-ups taken back to back sample one
#: moment of it; split around the window they span the whole run.
SERVER_BOOTS = (3, 3)
CLUSTER_BOOTS = (2, 2)
TRIALS_SETUPS = (5, 5)

HOT_RECORDS = 2_000
HOT_PER_KIND = 256
COLD_RECORDS = 100_000
#: Batches every ``cold_batch`` window holds at least: p90 then has 10
#: samples beyond it, and the utility covers 200 answers of each kind.
#: Each half of a traced run holds half as many (it reports no percentile).
COLD_SAMPLES = 100
#: Every this-many-th cold batch is compared bit for bit with the in-process
#: service.  The reference costs as much CPU as serving (about 0.37 s a
#: batch on 2 cores), so checking every batch would add over 35 s to a run.
COLD_CHECK_EVERY = 5
CLUSTER_RECORDS = 2_000
CLUSTER_DATASETS = 4
#: Answers every ``cluster_group`` window holds at least; the utility is
#: taken over this prefix of the served answers.  Each half of a traced run
#: holds half as many.
CLUSTER_SAMPLES = 320
TRIALS_N = 4_000
TRIALS_PER_CELL = 8
#: Grid calls every ``paper_trials`` window times at least: p90 then has 10
#: samples beyond it.  Their results give the utility.  Each half of a traced
#: run holds half as many.
TRIALS_CALLS = 100

LEVELS = [0.1, 0.5, 0.9]
KINDS = ("mean", "variance", "iqr", "quantile")
HUGE_BUDGET = 1e12
LIMITS = {"analyst_rate": 1e9, "analyst_burst": 1e9, "kind_rate": 1e9, "kind_burst": 1e9}
HEADERS = {"Content-Type": "application/json"}


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: Dict[str, object] = field(default_factory=dict)


@dataclass
class Record:
    index: int
    start_ns: int
    end_ns: int
    status: int
    body: bytes


# -- inputs -----------------------------------------------------------------


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _dataset(seed: int, tag: int, n: int) -> np.ndarray:
    # One fixed population: the seed draws the sample, not the scale, so the
    # relative error does not swing with a seed-drawn signal-to-noise ratio.
    return _rng(seed, 1, tag).normal(50.0, 10.0, n)


def _epsilon(rng: np.random.Generator) -> float:
    return round(float(rng.uniform(0.8, 1.2)), 9)


def _query(dataset: str, kind: str, epsilon: float) -> dict:
    query = {"dataset": dataset, "kind": kind, "epsilon": epsilon, "analyst": "bench"}
    if kind == "quantile":
        query["params"] = {"levels": LEVELS}
    return query


def _truths(data: np.ndarray) -> Dict[str, object]:
    q = np.quantile(data, [0.25, 0.75] + LEVELS)
    return {
        "mean": float(np.mean(data)),
        "variance": float(np.var(data)),
        "iqr": float(q[1] - q[0]),
        "quantile": [float(v) for v in q[2:]],
    }


def utility(rel_errors: Dict[str, List[float]]) -> float:
    """Geometric mean over kinds of each kind's median relative error.

    Kinds differ in error scale by orders of magnitude, so one median over a
    mix would sit on the boundary between two kinds and jump with the seed;
    with a single kind this is exactly that kind's median relative error.
    """
    logs = [math.log(statistics.median(v)) for v in rel_errors.values() if v]
    return math.exp(sum(logs) / len(logs))


def _rel_errors(kind: str, value, truth) -> List[float]:
    if kind == "quantile":
        return [abs(v - t) / abs(t) for v, t in zip(value, truth)]
    return [abs(value - truth) / abs(truth)]


# -- system under test --------------------------------------------------------


class Bench:
    """Run-scoped state: the scratch directory and the source tree."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float):
        self.root = root
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.seconds = seconds
        self.dir = os.path.join(root, ".perfbench_run", f"{workload}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self._count = itertools.count()

    def subdir(self, name: str) -> str:
        path = os.path.join(self.dir, f"{name}{next(self._count)}")
        os.makedirs(path)
        return path

    def env(self, trace_dir: Optional[str]) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            env["PYTHONPATH"] = os.pathsep.join([TRACEHOOK, self.src])
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        return env

    def write_config(self, document: dict, name: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as handle:
            json.dump(document, handle)
        return path

    def save(self, name: str, data: np.ndarray) -> str:
        path = os.path.join(self.dir, name)
        np.save(path, data)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        parent = os.path.dirname(self.dir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def start_server(self, config: str, trace_dir: Optional[str] = None) -> procs.Server:
        argv = [sys.executable, "-m", "repro", "serve", "--config", config, "--quiet"]
        return procs.Server(argv, self.env(trace_dir), self.subdir("serve"))


def reference_service(document: dict, workers: int = 1):
    """An in-process service from the same config: the answer oracle."""
    from repro.service import build_service
    from repro.service.config import parse_serving_config

    document = {k: v for k, v in document.items() if k not in ("observability", "cluster")}
    document["service"] = dict(document["service"], workers=workers)
    return build_service(parse_serving_config(document))


def reference_values(built, payloads: List[dict]) -> List[object]:
    from repro.service import wire

    requests = [wire.parse_request(payload) for payload in payloads]
    answers = built.service.submit_many(requests)
    values = []
    for answer in answers:
        if answer.status != "ok":
            raise RuntimeError(f"reference service answered {answer.status}: {answer.message}")
        values.append(list(answer.value) if isinstance(answer.value, tuple) else answer.value)
    return values


# -- closed-loop HTTP load ----------------------------------------------------


def closed_loop(
    host: str,
    port: int,
    connections: int,
    body: Callable[[int], bytes],
    seconds: float,
    *,
    sequence: Callable[[int, int], int],
    min_requests: int = 0,
    mark: Callable[[int], None] = lambda done: None,
) -> tuple:
    """``connections`` clients, each waiting for every reply before the next.

    ``sequence(connection, i)`` names the request index the connection sends
    as its ``i``-th request.  The window lasts ``seconds`` and is extended
    until ``min_requests`` replies exist.  The otherwise idle calling thread
    runs ``mark(replies so far)`` at each of the ``CPU_PARTS - 1`` inner
    boundaries of the first ``seconds`` and once more after every client has
    stopped but before any connection closes, while the server threads that
    served them (and their CPU time) still exist.  Returns (records,
    window_start_ns, window_end_ns), the end being the last reply's.
    """
    records: List[List[Record]] = [[] for _ in range(connections)]
    barrier = threading.Barrier(connections + 1)
    stopped = threading.Barrier(connections + 1)
    release = threading.Event()
    halt = threading.Event()  # the calling thread was interrupted
    start_box = {}

    def client(slot: int) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60.0)
        try:
            barrier.wait()
            end = start_box["end"]
            out = records[slot]
            for i in itertools.count():
                if halt.is_set() or (
                    time.perf_counter_ns() >= end and sum(map(len, records)) >= min_requests
                ):
                    break
                index = sequence(slot, i)
                payload = body(index)
                begin = time.perf_counter_ns()
                try:
                    connection.request("POST", "/query", payload, HEADERS)
                    response = connection.getresponse()
                    data = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(host, port, timeout=60.0)
                    data, status = b"", 0
                out.append(Record(index, begin, time.perf_counter_ns(), status, data))
            stopped.wait()
            release.wait()
        except threading.BrokenBarrierError:
            pass
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(connections)]
    for thread in threads:
        thread.start()
    start = time.perf_counter_ns()
    start_box["end"] = start + int(seconds * 1e9)
    try:
        barrier.wait()
        for part in range(1, CPU_PARTS):
            time.sleep(max(0.0, (start + part * seconds * 1e9 / CPU_PARTS
                                 - time.perf_counter_ns()) / 1e9))
            mark(sum(map(len, records)))
        stopped.wait()
        mark(sum(map(len, records)))
    except BaseException:
        halt.set()
        barrier.abort()
        stopped.abort()
        raise
    finally:
        release.set()
        for thread in threads:
            thread.join()
    records = [r for slot in records for r in slot]
    return records, start, max(r.end_ns for r in records)


def timing(records: List[Record], start_ns: int, end_ns: int, ops_per_request: int) -> dict:
    """End-to-end timing of the window's requests."""
    latencies = np.array([(r.end_ns - r.start_ns) / 1e6 for r in records])
    elapsed_s = (end_ns - start_ns) / 1e9
    return {
        "requests": len(records),
        "ops": len(records) * ops_per_request,
        "elapsed_s": elapsed_s,
        "ops_per_s": len(records) * ops_per_request / elapsed_s,
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p90_ms": float(np.percentile(latencies, 90)),
        "rtt_ms": float(latencies.mean()),
    }


def _median_cpu_per_op(marks: list, ops_per_request: int) -> float:
    """Median over the window's parts of CPU seconds per op."""
    rates = []
    for (done0, sample0), (done1, sample1) in zip(marks, marks[1:]):
        if done1 > done0:
            cpu = procs.window_usage(sample0, sample1).cpu_s
            rates.append(cpu / ((done1 - done0) * ops_per_request))
    return statistics.median(rates)


def _post(address: tuple, document: dict) -> dict:
    """One request outside the timed window (warm-up); must answer 200."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=120.0)
    try:
        connection.request("POST", "/query", json.dumps(document).encode(), HEADERS)
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    if response.status != 200:
        raise RuntimeError(f"warm-up request answered HTTP {response.status}")
    return json.loads(body)


def _decode(record: Record):
    if record.status != 200:
        return None
    try:
        return json.loads(record.body)
    except ValueError:
        return None


# -- HTTP server workloads ----------------------------------------------------


class HttpWorkload:
    """Shared driver for one-process and cluster HTTP workloads."""

    connections = 2
    ops_per_request = 1
    min_requests = 0

    def __init__(self, bench: Bench):
        self.bench = bench
        self.expected: Dict[int, object] = {}  # request index -> oracle answer

    # subclasses provide: prepare(), boot(trace_dir) -> system with a
    # ``setup_s``, stop(system), tree(system), address(system), warm(system),
    # body(i), sequence(c, i), check(records) -> (attempted, failed, utility)

    def setup_once(self) -> float:
        system = self.boot(None)
        self.stop(system)
        return system.setup_s

    def measure(self, system, seconds: float, min_requests: int):
        self.warm(system)
        client_cpu = procs.own_cpu_s()
        marks = [(0, procs.sample_tree(self.tree(system)))]

        def mark(done: int) -> None:
            marks.append((done, procs.sample_tree(self.tree(system))))

        host, port = self.address(system)
        records, start, end = closed_loop(
            host, port, self.connections, self.body, seconds,
            sequence=self.sequence, min_requests=min_requests, mark=mark,
        )
        client_cpu = procs.own_cpu_s() - client_cpu
        usage = procs.window_usage(marks[0][1], marks[-1][1])
        usage.ops = marks[-1][0] * self.ops_per_request
        usage.cpu_s_per_op = _median_cpu_per_op(marks, self.ops_per_request)
        return records, start, end, usage, client_cpu

    def run(self, traced: bool) -> Outcome:
        self.prepare()
        if traced:
            return self._run_traced()
        before, after = self.boots
        setups = [self.setup_once() for _ in range(before - 1)]
        system = self.boot(None)
        setups.append(system.setup_s)
        try:
            records, start, end, usage, _ = self.measure(
                system, self.bench.seconds, self.min_requests
            )
        finally:
            self.stop(system)
        setups += [self.setup_once() for _ in range(after)]
        stats = timing(records, start, end, self.ops_per_request)
        attempted, failed, util = self.check(records)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": stats["ops_per_s"],
            "latency_p50_ms": stats["latency_p50_ms"],
            "latency_p90_ms": stats["latency_p90_ms"],
            "cpu_ms_per_op": usage.cpu_s_per_op * 1e3,
            "rss_peak_mb": usage.rss_peak_mb,
            "median_rel_error": util,
        }
        notes = {
            "latency_samples": stats["requests"],
            "cpu_ticks": usage.cpu_ticks,
            "cpu_ticks_resolved": usage.resolved,
            "minor_faults_per_op": usage.minflt / usage.ops,
            "setup_boots_s": [round(s, 4) for s in setups],
        }
        return Outcome(attempted, failed, metrics, notes)

    def _run_traced(self) -> Outcome:
        half = self.bench.seconds / 2.0
        half_requests = self.min_requests // 2
        system = self.boot(None)
        try:
            records, start, end, usage, _ = self.measure(system, half, half_requests)
        finally:
            self.stop(system)
        plain = timing(records, start, end, self.ops_per_request)
        faults_per_op = usage.minflt / usage.ops
        attempted, failed, _ = self.check(records)

        trace_dir = self.bench.subdir("spans")
        system = self.boot(trace_dir)
        try:
            records, start, end, usage, client_cpu = self.measure(
                system, half, half_requests
            )
            parent = self.engine_parent(system)
        finally:
            self.stop(system)
        traced = timing(records, start, end, self.ops_per_request)
        more_attempted, more_failed, _ = self.check(records)
        attempted += more_attempted
        failed += more_failed
        table = layers.per_layer(
            layers.load_span_files(trace_dir),
            window_ns=(start, end),
            requests=traced["requests"],
            rtt_ms=traced["rtt_ms"],
            ops=traced["ops"],
            engine_parent=parent,
            workers=self.workers,
            usage=usage,
            extra={
                "client.cpu_ms_per_op": client_cpu * 1e3 / usage.ops,
                "proc.minor_faults_per_op": faults_per_op,
                "trace.overhead_share": 1.0 - traced["ops_per_s"] / plain["ops_per_s"],
                "error_rate": failed / attempted,
            },
        )
        notes = {
            "untraced_ops_per_s": plain["ops_per_s"],
            "traced_ops_per_s": traced["ops_per_s"],
            "traced_rtt_ms": traced["rtt_ms"],
        }
        return Outcome(attempted, failed, table, notes)


class ServerWorkload(HttpWorkload):
    """One ``repro serve`` process (threaded front-end, the default)."""

    boots = SERVER_BOOTS
    records = HOT_RECORDS
    workers = 1

    def config(self, data_path: str) -> dict:
        return {
            "service": {
                "seed": self.bench.seed, "workers": self.workers, "host": "127.0.0.1",
                "port": 0, "quiet": True,
            },
            "datasets": [{"name": "data", "source": data_path, "budget": HUGE_BUDGET}],
            "limits": LIMITS,
            "observability": {"audit_log": "audit.jsonl"},
        }

    def prepare(self) -> None:
        self.data = _dataset(self.bench.seed, 0, self.records)
        self.truths = _truths(self.data)
        self.document = self.config(self.bench.save("data.npy", self.data))
        self.config_path = self.bench.write_config(self.document, "serving.json")

    def boot(self, trace_dir):
        return self.bench.start_server(self.config_path, trace_dir)

    def stop(self, system) -> None:
        system.stop()

    def tree(self, system) -> List[int]:
        return procs.descendants([system.pid])

    def address(self, system):
        return system.host, system.port

    def engine_parent(self, system) -> int:
        return system.pid


class HotHttp(ServerWorkload):
    """Cache hits only: a pre-warmed catalogue replayed on keep-alive links."""

    def prepare(self) -> None:
        super().prepare()
        rng = _rng(self.bench.seed, 2)
        self.catalogue = []
        for kind in KINDS:
            epsilons = set()
            while len(epsilons) < HOT_PER_KIND:
                epsilons.add(_epsilon(rng))
            self.catalogue += [_query("data", kind, eps) for eps in sorted(epsilons)]
        order = rng.permutation(len(self.catalogue))
        self.catalogue = [self.catalogue[i] for i in order]
        self.bodies = [json.dumps(q).encode() for q in self.catalogue]

    def warm(self, system) -> None:
        # Here the server computes every catalogue answer.  They are checked
        # and give the utility: on a slow transport the window replays only
        # part of the catalogue.
        self.computed = []
        for first in range(0, len(self.catalogue), 128):
            document = _post(
                self.address(system), {"queries": self.catalogue[first:first + 128]}
            )
            self.computed += [answer.get("value") for answer in document["answers"]]

    def body(self, index: int) -> bytes:
        return self.bodies[index]

    def sequence(self, connection: int, i: int) -> int:
        return (connection * len(self.bodies) // self.connections + i) % len(self.bodies)

    def check(self, records: List[Record]):
        if not self.expected:
            with reference_service(self.document) as built:
                self.expected = dict(enumerate(reference_values(built, self.catalogue)))
        failed = 0
        errors: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        for index, (query, value) in enumerate(zip(self.catalogue, self.computed)):
            if value != self.expected[index]:
                failed += 1
            else:
                kind = query["kind"]
                errors[kind] += _rel_errors(kind, value, self.truths[kind])
        for record in records:
            doc = _decode(record)
            if not (
                doc is not None and doc.get("status") == "ok" and doc.get("cached") is True
                and doc.get("value") == self.expected[record.index]
            ):
                failed += 1
        return len(self.computed) + len(records), failed, utility(errors)


class ColdBatch(ServerWorkload):
    """Never-seen batches of 8 (2 each of iqr, quantile, mean, variance).

    A batch takes about 0.35 s with 2 engine workers, so ``--seconds`` alone
    would leave too few latency samples for p90; the window runs on until
    it holds ``COLD_SAMPLES`` batches.
    """

    connections = 1
    ops_per_request = 8
    records = COLD_RECORDS
    workers = NPROC
    min_requests = COLD_SAMPLES
    shape = ("iqr", "iqr", "quantile", "quantile", "mean", "mean", "variance", "variance")

    def batch(self, index: int, tag: int = 3) -> List[dict]:
        rng = _rng(self.bench.seed, tag, index)
        return [_query("data", kind, _epsilon(rng)) for kind in self.shape]

    def warm(self, system) -> None:
        # Forks the engine pool and settles the heap before the window, with
        # queries from a separate stream so the measured ones stay unseen.
        for index in range(2):
            _post(self.address(system), {"queries": self.batch(index, tag=8)})

    def body(self, index: int) -> bytes:
        return json.dumps({"queries": self.batch(index)}).encode()

    def sequence(self, connection: int, i: int) -> int:
        return i

    def check(self, records: List[Record]):
        served = {}
        failed = 0
        width = len(self.shape)
        for record in records:
            doc = _decode(record)
            answers = doc.get("answers") if doc is not None else None
            if not isinstance(answers, list) or len(answers) != width:
                failed += width
                continue
            for answer in answers:
                if answer.get("status") != "ok" or answer.get("cached") or answer.get("coalesced"):
                    failed += 1
            served[record.index] = answers
        checked = [b for b in sorted(served) if b % COLD_CHECK_EVERY == 0]
        missing = [b for b in checked if b not in self.expected]
        if missing:
            # One submit_many for all of them: grouped answers equal the
            # per-batch ones bit for bit, and grouping is faster.
            with reference_service(self.document, workers=NPROC) as built:
                values = reference_values(built, [q for b in missing for q in self.batch(b)])
            for slot, b in enumerate(missing):
                self.expected[b] = values[slot * width:(slot + 1) * width]
        for b in checked:
            failed += sum(a.get("value") != v for a, v in zip(served[b], self.expected[b]))
        # Utility over the first COLD_SAMPLES batches, which every window
        # holds.
        errors: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        for batch in range(COLD_SAMPLES):
            for answer in served.get(batch, ()):
                kind = answer.get("kind")
                if answer.get("status") == "ok":
                    errors[kind] += _rel_errors(kind, answer["value"], self.truths[kind])
        return len(records) * width, failed, utility(errors)


class ClusterGroup(HttpWorkload):
    """Never-seen singleton means through a 2-shard compose cluster.

    One connection, not two: with two, 8-18% of requests (varying by run)
    pay the 44 ms Nagle/delayed-ACK stall on both the client->router and the
    router->shard hop, which puts p90 on the boundary between the two modes
    (it read 53, 64 and 92 ms across runs of one build).  With one
    connection under 0.5% do.  The window runs on until it holds
    ``CLUSTER_SAMPLES`` answers, and every served answer is checked.
    """

    boots = CLUSTER_BOOTS
    connections = 1
    workers = 1
    shards = min(2, NPROC)
    min_requests = CLUSTER_SAMPLES

    def prepare(self) -> None:
        self.truths = {}
        datasets = []
        for tag in range(CLUSTER_DATASETS):
            name = f"g{tag}"
            data = _dataset(self.bench.seed, 10 + tag, CLUSTER_RECORDS)
            self.truths[name] = float(np.mean(data))
            path = self.bench.save(f"{name}.npy", data)
            datasets.append({"name": name, "source": path, "group": "shared"})
        self.document = {
            "service": {"seed": self.bench.seed, "workers": 1, "host": "127.0.0.1",
                        "port": 0, "quiet": True},
            "groups": {"shared": {"budget": HUGE_BUDGET}},
            "datasets": datasets,
            "limits": LIMITS,
            "observability": {"audit_log": "audit.jsonl"},
            "cluster": {"shards": self.shards},
        }
        self.config_path = self.bench.write_config(self.document, "cluster.json")

    def query(self, index: int, tag: int = 4) -> dict:
        rng = _rng(self.bench.seed, tag, index)
        name = f"g{int(rng.integers(CLUSTER_DATASETS))}"
        return _query(name, "mean", _epsilon(rng))

    def boot(self, trace_dir):
        from repro.cluster.compose import compose_up

        # compose_up starts its children with this process's environment.
        saved = dict(os.environ)
        os.environ.clear()
        os.environ.update(self.bench.env(trace_dir))
        try:
            started = time.perf_counter()
            handle = compose_up(self.config_path, self.bench.subdir("compose"))
            handle.setup_s = time.perf_counter() - started
        finally:
            os.environ.clear()
            os.environ.update(saved)
        return handle

    def stop(self, system) -> None:
        tree = self.tree(system)
        system.down()
        procs.wait_gone(tree)

    def tree(self, system) -> List[int]:
        return procs.descendants([p.pid for p in system.processes.values()])

    def address(self, system):
        return system.plan.host, system.plan.router_port

    def engine_parent(self, system):
        return None

    def warm(self, system) -> None:
        for index in range(2 * CLUSTER_DATASETS):
            _post(self.address(system), self.query(index, tag=9))

    def body(self, index: int) -> bytes:
        return json.dumps(self.query(index)).encode()

    def sequence(self, connection: int, i: int) -> int:
        return i * self.connections + connection

    def check(self, records: List[Record]):
        failed = 0
        served = {}
        for record in records:
            doc = _decode(record)
            if doc is None or doc.get("status") != "ok" or doc.get("cached") or doc.get("coalesced"):
                failed += 1
            else:
                served[record.index] = doc.get("value")
        missing = sorted(set(served) - set(self.expected))
        if missing:
            with reference_service(self.document) as built:
                values = reference_values(built, [self.query(i) for i in missing])
            self.expected.update(zip(missing, values))
        errors: Dict[str, List[float]] = {"mean": []}
        for index, value in served.items():
            if value != self.expected[index]:
                failed += 1
            elif index < CLUSTER_SAMPLES:
                truth = self.truths[self.query(index)["dataset"]]
                errors["mean"] += _rel_errors("mean", value, truth)
        return len(records), failed, utility(errors)


# -- in-process research workload ---------------------------------------------


class PaperTrials:
    """``analysis.run_statistical_grid`` calls through one ``EnginePool``."""

    workers = NPROC

    def __init__(self, bench: Bench):
        self.bench = bench

    def prepare(self) -> None:
        from repro.distributions import Gaussian, StudentT
        from repro.estimators import get_estimator

        rng = _rng(self.bench.seed, 5)
        self.specs = []
        for distribution in (Gaussian(10.0, 2.0), StudentT(5.0, 10.0, 2.0)):
            for kind in ("mean", "variance", "iqr"):
                epsilon = _epsilon(rng)
                self.specs.append((kind, distribution, get_estimator(kind).estimator_fn(epsilon)))

    def cells(self, call: int):
        from repro.analysis import StatisticalCell

        return [
            StatisticalCell(
                estimator, distribution, kind, TRIALS_N, TRIALS_PER_CELL,
                int(np.random.SeedSequence([self.bench.seed, 6, call, c]).generate_state(1)[0]),
                key=c,
            )
            for c, (kind, distribution, estimator) in enumerate(self.specs)
        ]

    def grid(self, call: int, pool):
        from repro.analysis import run_statistical_grid

        return run_statistical_grid(self.cells(call), pool=pool)

    def _window(self, pool, seconds: float, calls: int = TRIALS_CALLS):
        """Timed grid calls 1, 2, ... until the window closes and ``calls`` exist."""
        def sample():
            return procs.sample_tree(procs.descendants([os.getpid()]))

        marks = [(0, sample())]
        latencies, results = [], []
        start = time.perf_counter_ns()
        end = start + int(seconds * 1e9)
        part_ns = (end - start) / CPU_PARTS
        for call in itertools.count(1):
            now = time.perf_counter_ns()
            if now >= end and call > calls:
                break
            outcome = self.grid(call, pool)
            last = time.perf_counter_ns()
            latencies.append((last - now) / 1e6)
            if len(marks) < CPU_PARTS and last >= start + len(marks) * part_ns:
                marks.append((len(latencies), sample()))
            if call <= calls:
                results.append(outcome)
        marks.append((len(latencies), sample()))
        usage = procs.window_usage(marks[0][1], marks[-1][1])
        usage.ops = marks[-1][0] * TRIALS_PER_CELL * len(self.specs)
        usage.cpu_s_per_op = _median_cpu_per_op(marks, TRIALS_PER_CELL * len(self.specs))
        return latencies, results, start, last, usage

    def _utility_and_check(self, pool_results, reference) -> tuple:
        failed = 0
        for got, want in zip(pool_results[0], reference):
            if not np.array_equal(got.estimates, want.estimates):
                failed += TRIALS_PER_CELL
        errors: Dict[str, List[float]] = {}
        for outcome in pool_results:
            for c, result in enumerate(outcome):
                errors.setdefault(str(c), []).extend(
                    (result.errors / abs(result.truth)).tolist()
                )
        return failed, utility(errors)

    def run(self, traced: bool) -> Outcome:
        from repro.engine import EnginePool

        self.prepare()
        trials_per_call = TRIALS_PER_CELL * len(self.specs)
        if traced:
            return self._run_traced(trials_per_call)
        setups, first, failed = [], [], 0

        def setup():
            nonlocal failed
            started = time.perf_counter()
            pool = EnginePool(NPROC)
            outcome = self.grid(0, pool)
            setups.append(time.perf_counter() - started)
            estimates = [r.estimates for r in outcome]
            if not first:
                first.extend(estimates)
            elif not all(np.array_equal(a, b) for a, b in zip(first, estimates)):
                failed += trials_per_call  # call 0 must reproduce on every pool
            return pool

        before, after = TRIALS_SETUPS
        for _ in range(before - 1):
            setup().close()
        pool = setup()
        try:
            latencies, results, start, end, usage = self._window(pool, self.bench.seconds)
        finally:
            pool.close()
        for _ in range(after):
            setup().close()
        reference = self.grid(1, None)
        mismatched, util = self._utility_and_check(results, reference)
        failed += mismatched
        calls = len(latencies)
        trials = calls * trials_per_call
        attempted = (max(calls, len(results)) + len(setups)) * trials_per_call
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": trials / ((end - start) / 1e9),
            "latency_p50_ms": float(np.percentile(latencies, 50)),
            "latency_p90_ms": float(np.percentile(latencies, 90)),
            "cpu_ms_per_op": usage.cpu_s_per_op * 1e3,
            "rss_peak_mb": usage.rss_peak_mb,
            "median_rel_error": util,
        }
        notes = {
            "latency_samples": calls,
            "cpu_ticks": usage.cpu_ticks,
            "cpu_ticks_resolved": usage.resolved,
            "setup_boots_s": [round(s, 4) for s in setups],
        }
        return Outcome(attempted, failed, metrics, notes)

    def _run_traced(self, trials_per_call: int) -> Outcome:
        from repro.engine import EnginePool

        half = self.bench.seconds / 2.0
        half_calls = TRIALS_CALLS // 2
        with EnginePool(NPROC) as pool:
            self.grid(0, pool)
            latencies, plain_results, start, end, usage = self._window(pool, half, half_calls)
        plain_rate = len(latencies) * trials_per_call / ((end - start) / 1e9)
        faults_per_op = usage.minflt / usage.ops

        import perfbench_trace

        trace_dir = self.bench.subdir("spans")
        os.environ["PERFBENCH_TRACE_DIR"] = trace_dir
        perfbench_trace.install(server=False)
        try:
            with EnginePool(NPROC) as pool:
                self.grid(0, pool)
                latencies, results, start, end, usage = self._window(pool, half, half_calls)
        finally:
            os.environ.pop("PERFBENCH_TRACE_DIR", None)
        trials = len(latencies) * trials_per_call
        reference = self.grid(1, None)
        failed, _ = self._utility_and_check(results, reference)
        documents = layers.load_span_files(trace_dir)
        documents.append(
            {"pid": os.getpid(), "role": "main", "spans": list(perfbench_trace.spans())}
        )
        attempted = (len(plain_results) + len(results)) * trials_per_call
        table = layers.per_layer(
            documents,
            window_ns=(start, end),
            requests=0,
            rtt_ms=0.0,
            ops=trials,
            trials=trials,
            engine_parent=os.getpid(),
            workers=NPROC,
            usage=usage,
            extra={
                "client.cpu_ms_per_op": usage.by_pid[os.getpid()] * 1e3 / usage.ops,
                "proc.minor_faults_per_op": faults_per_op,
                "trace.overhead_share": 1.0 - (trials / ((end - start) / 1e9)) / plain_rate,
                "error_rate": failed / attempted,
            },
        )
        notes = {"untraced_ops_per_s": plain_rate,
                 "traced_ops_per_s": trials / ((end - start) / 1e9)}
        return Outcome(attempted, failed, table, notes)


WORKLOADS = {
    "hot_http": HotHttp,
    "cold_batch": ColdBatch,
    "cluster_group": ClusterGroup,
    "paper_trials": PaperTrials,
}

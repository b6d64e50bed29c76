"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload hot_http --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``hot_http`` (cache hits over keep-alive
HTTP), ``cold_batch`` (never-seen batches of 8 at n=100k), ``cluster_group``
(never-seen means through a 2-shard compose cluster sharing one joint
budget) and ``paper_trials`` (in-process ``run_statistical_grid``).  Every
system process is fresh for the run and is stopped before it ends.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer table from a run whose system processes have the span recorder
(``tracehook/``) loaded.  The last stdout line is the JSON result; the line
before it records provenance (code identity, host, and the ``host.calib_ms``
readings taken at the start and end of the run, so that a slow run can be
told apart from a slow host).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "rss_peak_mb": "MB",
    "median_rel_error": "ratio",
}


def calib_ms() -> float:
    """A fixed NumPy kernel (sorting 2^20 seeded doubles), best of 5."""
    import numpy as np

    values = np.random.default_rng(0).random(1 << 20)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        np.sort(values)
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def _git_sha(root: str):
    """HEAD's commit from ``.git`` in ``root`` itself; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(src: str) -> str:
    """Content hash of every ``.py`` file under ``src`` (a checkout has no git)."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still unwinds through every workload's ``finally``,
    # which stops the system processes it started.
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no source tree at {SRC}/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(HERE, "tracehook"), SRC]
    import numpy as np
    import layers
    import procs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    procs.become_subreaper()
    calib_start = calib_ms()
    bench = workloads.Bench(ROOT, args.workload, args.seed, args.seconds)
    try:
        outcome = workloads.WORKLOADS[args.workload](bench).run(traced=bool(args.trace))
    finally:
        procs.reap_all()
        bench.cleanup()
    calib_end = calib_ms()

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(ROOT),
        "src_sha256": _src_sha256(SRC),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine_workers": workloads.WORKLOADS[args.workload].workers,
        "host_calib_ms_start": calib_start,
        "host_calib_ms_end": calib_end,
        **outcome.notes,
    }
    if args.trace:
        outcome.metrics["host.calib_ms"] = (calib_start + calib_end) / 2.0
        print(layers.format_table(outcome.metrics))
        units = layers.METRICS
    else:
        units = END_TO_END
        for name in units:
            print(f"{name:<20} {outcome.metrics[name]:>14.6g} {units[name]}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

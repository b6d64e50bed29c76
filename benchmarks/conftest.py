"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one experiment from the DESIGN.md index and emits
a plain-text table/series (the analogue of a paper table or figure).  Reports
are written to ``benchmarks/results/<experiment>.txt``, to a structured JSON
sidecar ``benchmarks/results/<experiment>.json`` (consumed by the CI
bench-smoke artifact), and to the real stdout (bypassing pytest capture) so
that ``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` leaves a
readable record.

All drivers share **one** :class:`repro.engine.EnginePool` for the whole
session (the ``engine_pool`` fixture): the pool forks its workers on the
first parallel cell and every subsequent cell of every driver reuses them —
no per-cell pool spin-up.  With the default ``--engine-workers 1`` the pool
never forks and everything runs on the serial reference path; results are
bit-for-bit identical either way.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.engine import EnginePool  # noqa: E402 - after the sys.path fallback

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--engine-workers",
        type=int,
        default=1,
        help=(
            "Worker processes for the shared repro.engine pool used by the "
            "benchmarks (per-cell grid fan-out and per-trial fan-out); "
            "results are bit-for-bit identical for any value"
        ),
    )


@pytest.fixture(scope="session")
def engine_pool(request):
    """One persistent EnginePool shared by every benchmark cell of the session.

    Forks lazily on the first parallel call, so ``--engine-workers 1`` (the
    default) stays a pure serial run with no processes spawned.
    """
    workers = int(request.config.getoption("--engine-workers"))
    with EnginePool(workers) as pool:
        yield pool


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20230401)


def _json_safe(value):
    """Coerce table cells (numpy scalars, tuples, None) to JSON-safe values.

    Non-finite floats become strings: ``json.dumps`` would otherwise emit
    bare ``NaN``/``Infinity`` tokens, which strict JSON parsers reject.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        as_float = float(value)
        return as_float if np.isfinite(as_float) else repr(as_float)
    if isinstance(value, np.ndarray):
        return [_json_safe(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (str, int)) or value is None:
        return value
    return str(value)


def _git(*args: str):
    """Stdout of a git command in this checkout, or None outside a clone."""
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def provenance(workers: int) -> dict:
    """What a perf record was measured on: commit, host and versions."""
    changes = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD") or None,
        # True when the measured tree had changes on top of that commit.
        "git_dirty": None if changes is None else bool(changes),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine_workers": workers,
    }


@pytest.fixture
def reporter(capfd, request):
    """Emit an experiment report to stdout (uncaptured), a text file and JSON.

    pytest captures output at the file-descriptor level, so the report is
    printed inside ``capfd.disabled()`` to reach the real stdout (and hence
    ``bench_output.txt`` when the run is piped through ``tee``).

    Call as ``reporter(experiment_id, text)`` for the legacy text-only form,
    or pass ``headers=``/``rows=`` to also write a structured
    ``results/<experiment>.json`` record (the CI bench-smoke job uploads
    these as its artifact).  Every record carries its :func:`provenance`.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    workers = int(request.config.getoption("--engine-workers"))

    def emit(experiment_id: str, text: str, headers=None, rows=None) -> None:
        stem = experiment_id.lower()
        (RESULTS_DIR / f"{stem}.txt").write_text(text + "\n")
        record = {
            "experiment": experiment_id,
            "test": request.node.name,
            "engine_workers": workers,
            "provenance": provenance(workers),
            "headers": _json_safe(headers) if headers is not None else None,
            "rows": _json_safe(rows) if rows is not None else None,
            "text": text,
        }
        (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        with capfd.disabled():
            print(text, flush=True)

    return emit


@pytest.fixture
def run_once(benchmark):
    """Run the experiment body exactly once under pytest-benchmark timing."""

    def runner(func):
        return benchmark.pedantic(func, rounds=1, iterations=1)

    return runner

"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, load_column, main
from repro.exceptions import DomainError


@pytest.fixture
def salary_csv(tmp_path):
    """A small CSV with a header and two numeric columns."""
    rng = np.random.default_rng(5)
    path = tmp_path / "salaries.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["employee_id", "salary", "age"])
        for i in range(5000):
            writer.writerow([i, f"{rng.lognormal(11.0, 0.5):.2f}", int(rng.integers(21, 65))])
    return path


class TestLoadColumn:
    def test_load_by_header_name(self, salary_csv):
        values = load_column(salary_csv, "salary")
        assert values.size == 5000
        assert np.all(values > 0)

    def test_load_by_index(self, salary_csv):
        by_name = load_column(salary_csv, "age")
        by_index = load_column(salary_csv, "2")
        np.testing.assert_allclose(by_name, by_index)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DomainError):
            load_column(tmp_path / "nope.csv", "salary")

    def test_unknown_column(self, salary_csv):
        with pytest.raises(DomainError):
            load_column(salary_csv, "bonus")

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\nnot-a-number\n")
        with pytest.raises(DomainError):
            load_column(path, "value")

    def test_blank_cells_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("value\n1.0\n\n2.0\n")
        values = load_column(path, "value")
        assert values.tolist() == [1.0, 2.0]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quantiles_levels_parsed(self, salary_csv):
        args = build_parser().parse_args(
            ["quantiles", str(salary_csv), "--column", "salary", "--levels", "0.5", "0.95"]
        )
        assert args.levels == [0.5, 0.95]
        assert args.command == "quantiles"

    def test_defaults(self, salary_csv):
        args = build_parser().parse_args(["mean", str(salary_csv), "--column", "salary"])
        assert args.epsilon == 1.0
        assert args.seed is None


class TestMain:
    def test_mean_command(self, salary_csv, capsys):
        code = main(["mean", str(salary_csv), "--column", "salary", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dp_mean=" in out
        assert "records=5000" in out
        assert "epsilon_spent=" in out

    def test_variance_command(self, salary_csv, capsys):
        code = main(["variance", str(salary_csv), "--column", "salary", "--seed", "1"])
        assert code == 0
        assert "dp_variance=" in capsys.readouterr().out

    def test_iqr_command_with_ledger(self, salary_csv, capsys):
        code = main(
            ["iqr", str(salary_csv), "--column", "salary", "--seed", "1", "--show-ledger"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dp_iqr=" in out
        assert "PrivacyLedger" in out

    def test_quantiles_command(self, salary_csv, capsys):
        code = main(
            ["quantiles", str(salary_csv), "--column", "salary", "--seed", "1",
             "--levels", "0.5", "0.95"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dp_q0.5=" in out
        assert "dp_q0.95=" in out

    def test_mean_estimate_is_reasonable(self, salary_csv, capsys):
        main(["mean", str(salary_csv), "--column", "salary", "--seed", "3", "--epsilon", "1.0"])
        out = capsys.readouterr().out
        value = float(out.split("dp_mean=")[1].splitlines()[0])
        truth = float(np.mean(load_column(salary_csv, "salary")))
        assert value == pytest.approx(truth, rel=0.1)

    def test_error_exit_code_on_bad_column(self, salary_csv, capsys):
        code = main(["mean", str(salary_csv), "--column", "bonus"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_error_exit_code_on_missing_file(self, tmp_path, capsys):
        code = main(["mean", str(tmp_path / "missing.csv"), "--column", "x"])
        assert code == 2


class TestTrialMode:
    def test_trials_report_spread(self, salary_csv, capsys):
        code = main(
            ["mean", str(salary_csv), "--column", "salary", "--seed", "1",
             "--epsilon", "1.0", "--trials", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dp_mean_median=" in out
        assert "trials=8" in out
        assert "failures=0" in out
        median = float(out.split("dp_mean_median=")[1].splitlines()[0])
        q10 = float(out.split("dp_mean_q10=")[1].splitlines()[0])
        q90 = float(out.split("dp_mean_q90=")[1].splitlines()[0])
        assert q10 <= median <= q90
        truth = float(np.mean(load_column(salary_csv, "salary")))
        assert median == pytest.approx(truth, rel=0.1)
        per_trial = float(out.split("epsilon_per_trial=")[1].splitlines()[0])
        total = float(out.split("epsilon_total_spent=")[1].splitlines()[0])
        assert total == pytest.approx(8 * per_trial)

    def test_trials_show_ledger(self, salary_csv, capsys):
        code = main(
            ["mean", str(salary_csv), "--column", "salary", "--seed", "1",
             "--trials", "3", "--show-ledger"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per-trial ledger" in out

    def test_trials_worker_count_invariant(self, salary_csv, capsys):
        args = ["mean", str(salary_csv), "--column", "salary", "--seed", "2",
                "--epsilon", "1.0", "--trials", "6"]
        assert main(args + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        # Identical estimates -> identical printed spread, bar the workers line.
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("workers=")]  # noqa: E731
        assert strip(serial) == strip(parallel)

    def test_trials_partial_failure_accounting(self, salary_csv, capsys, monkeypatch):
        """Failed trials' partial budget spend must still be counted."""
        from repro import cli
        from repro.exceptions import MechanismError

        calls = {"n": 0}

        def flaky(data, epsilon, beta, gen, ledger):
            ledger.charge("probe_first_half", epsilon / 2)
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise MechanismError("ptr rejected")
            ledger.charge("probe_second_half", epsilon / 2)
            return float(np.mean(data))

        monkeypatch.setitem(cli._SCALAR_ESTIMATORS, "mean", flaky)
        code = main(
            ["mean", str(salary_csv), "--column", "salary", "--trials", "4",
             "--epsilon", "1.0", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "failures=2" in out
        total = float(out.split("epsilon_total_spent=")[1].splitlines()[0])
        # 2 successes at full epsilon + 2 failures that spent half before aborting.
        assert total == pytest.approx(2 * 1.0 + 2 * 0.5)

    def test_trials_all_failing_exits_with_error(self, salary_csv, capsys, monkeypatch):
        from repro import cli
        from repro.exceptions import MechanismError

        def always_failing(data, epsilon, beta, gen, ledger):
            raise MechanismError("ptr rejected")

        monkeypatch.setitem(cli._SCALAR_ESTIMATORS, "mean", always_failing)
        code = main(["mean", str(salary_csv), "--column", "salary", "--trials", "3"])
        assert code == 2
        assert "all 3 trials failed" in capsys.readouterr().err

    def test_trials_rejected_for_quantiles(self, salary_csv, capsys):
        code = main(
            ["quantiles", str(salary_csv), "--column", "salary", "--trials", "3"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_trials_rejected(self, salary_csv, capsys):
        code = main(["mean", str(salary_csv), "--column", "salary", "--trials", "0"])
        assert code == 2

    def test_invalid_workers_rejected_even_for_single_trial(self, salary_csv, capsys):
        code = main(["mean", str(salary_csv), "--column", "salary", "--workers", "0"])
        assert code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err


class TestSuiteCommand:
    def test_suite_releases_all_three_statistics(self, salary_csv, capsys):
        code = main(["suite", str(salary_csv), "--column", "salary", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dp_mean=" in out
        assert "dp_variance=" in out
        assert "dp_iqr=" in out
        assert "records=5000" in out
        # Three independent full-budget releases: at least epsilon each (some
        # estimators charge auxiliary probes on top, e.g. variance's paired
        # range search).
        total = float(out.split("epsilon_total_spent=")[1].splitlines()[0])
        assert total >= 3 * 1.0 - 1e-9

    def test_suite_with_trials_reports_spread(self, salary_csv, capsys):
        code = main(
            ["suite", str(salary_csv), "--column", "salary", "--seed", "1",
             "--epsilon", "1.0", "--trials", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for stat in ("mean", "variance", "iqr"):
            assert f"dp_{stat}_median=" in out
            assert f"dp_{stat}_failures=0" in out
        assert "trials_per_statistic=5" in out
        total = float(out.split("epsilon_total_spent=")[1].splitlines()[0])
        median = float(out.split("dp_mean_median=")[1].splitlines()[0])
        truth = float(np.mean(load_column(salary_csv, "salary")))
        assert median == pytest.approx(truth, rel=0.1)
        # The spend scales linearly in --trials: 5x the single-shot suite.
        assert main(["suite", str(salary_csv), "--column", "salary", "--seed", "1",
                     "--epsilon", "1.0"]) == 0
        single = capsys.readouterr().out
        base = float(single.split("epsilon_total_spent=")[1].splitlines()[0])
        assert total == pytest.approx(5 * base)

    def test_suite_grid_worker_count_invariant(self, salary_csv, capsys):
        args = ["suite", str(salary_csv), "--column", "salary", "--seed", "2",
                "--trials", "4"]
        assert main(args + ["--grid-workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--grid-workers", "3"]) == 0
        parallel = capsys.readouterr().out
        strip = lambda text: [l for l in text.splitlines()  # noqa: E731
                              if not l.startswith("grid_workers=")]
        assert strip(serial) == strip(parallel)

    def test_suite_deterministic_for_fixed_seed(self, salary_csv, capsys):
        args = ["suite", str(salary_csv), "--column", "salary", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert first == capsys.readouterr().out

    def test_suite_show_ledger(self, salary_csv, capsys):
        code = main(
            ["suite", str(salary_csv), "--column", "salary", "--seed", "1",
             "--show-ledger"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per-trial ledger" in out

    def test_suite_invalid_grid_workers_rejected(self, salary_csv, capsys):
        code = main(
            ["suite", str(salary_csv), "--column", "salary", "--grid-workers", "0"]
        )
        assert code == 2
        assert "--grid-workers must be at least 1" in capsys.readouterr().err

    def test_suite_rejects_plain_workers_flag(self, salary_csv, capsys):
        """--workers is meaningless for suite; silently ignoring it would let
        the user believe the trials were parallelised."""
        code = main(
            ["suite", str(salary_csv), "--column", "salary", "--workers", "4"]
        )
        assert code == 2
        assert "--grid-workers" in capsys.readouterr().err


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # Semantic-version shape, sourced from package metadata / __init__.
        assert out.strip().split(" ", 1)[1].count(".") == 2

    def test_version_matches_package_metadata(self):
        from repro.cli import _package_version

        version = _package_version()
        assert isinstance(version, str) and version


class TestCleanErrors:
    def test_unknown_subcommand_is_a_clean_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_invalid_argument_value_is_a_clean_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mean", "x.csv", "--column", "c", "--epsilon", "lots"])
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_oserror_becomes_one_line_error(self, tmp_path, capsys):
        # A directory where a CSV is expected raises IsADirectoryError (an
        # OSError that is not a ReproError); the CLI must not print a
        # traceback for it.
        target = tmp_path / "adir"
        target.mkdir()
        code = main(["mean", str(target), "--column", "c"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestServeAndQueryCli:
    @pytest.fixture
    def live_server(self):
        import numpy as np

        from repro.service import QueryService, make_server, serve_forever

        service = QueryService(seed=3)
        service.register("salary", np.random.default_rng(0).lognormal(11, 0.5, 5000), 3.0)
        server = make_server(service, port=0, quiet=True)
        thread = serve_forever(server)
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_query_roundtrip_and_cache(self, live_server, capsys):
        args = ["query", "mean", "--url", live_server.url,
                "--dataset", "salary", "--epsilon", "0.5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "status=ok" in first and "cached=no" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cached=yes" in second
        assert "epsilon_charged=0\n" in second

    def test_query_refusal_exit_code(self, live_server, capsys):
        code = main(["query", "mean", "--url", live_server.url,
                     "--dataset", "salary", "--epsilon", "50"])
        assert code == 3
        out = capsys.readouterr().out
        assert "status=refused" in out
        assert "error=budget_exceeded" in out

    def test_query_unknown_dataset_exit_code(self, live_server, capsys):
        code = main(["query", "mean", "--url", live_server.url,
                     "--dataset", "ghost", "--epsilon", "0.5"])
        assert code == 2
        assert "error=unknown_dataset" in capsys.readouterr().out

    def test_query_quantile_levels(self, live_server, capsys):
        code = main(["query", "quantile", "--url", live_server.url,
                     "--dataset", "salary", "--epsilon", "0.5",
                     "--levels", "0.5", "0.9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status=ok" in out
        assert "value=" in out and "," in out.split("value=")[1].splitlines()[0]

    def test_query_unreachable_service_clean_error(self, capsys):
        code = main(["query", "mean", "--url", "http://127.0.0.1:9",
                     "--dataset", "salary", "--epsilon", "0.5", "--timeout", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot reach service" in err
        assert "Traceback" not in err

    def test_serve_parser_accepts_full_flagset(self, tmp_path):
        csv_file = tmp_path / "x.csv"
        csv_file.write_text("v\n1\n2\n")
        args = build_parser().parse_args(
            ["serve", str(csv_file), "--column", "v", "--budget", "4",
             "--analyst-budget", "alice=1.5", "--port", "0", "--seed", "7",
             "--workers", "2", "--cache-size", "64", "--allow-register", "--quiet"]
        )
        assert args.command == "serve"
        assert args.budget == 4.0
        assert args.analyst_budget == ["alice=1.5"]

    def test_bad_analyst_budget_spec_rejected(self):
        from repro.cli import _parse_analyst_budgets
        from repro.exceptions import DomainError

        with pytest.raises(DomainError):
            _parse_analyst_budgets(["alice"])
        with pytest.raises(DomainError):
            _parse_analyst_budgets(["alice=abc"])
        assert _parse_analyst_budgets(["a=1", "b=0.5"]) == {"a": 1.0, "b": 0.5}


def _descendants(pid: int) -> list:
    """Every live process below ``pid``, read off ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found += children
        frontier += children
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_sigint_stops_the_default_door_and_its_engine_workers(tmp_path):
    """``repro serve --config`` on the default (asyncio) door with two engine
    workers: after a cold batch, SIGINT ends the server and every worker."""
    np.save(tmp_path / "d.npy", np.random.default_rng(1).normal(50.0, 5.0, 20_000))
    config = tmp_path / "serving.toml"
    config.write_text(
        "[service]\nseed = 7\nworkers = 2\nport = 0\nquiet = true\n\n"
        '[[datasets]]\nname = "d"\nsource = "d.npy"\nbudget = 50.0\n'
    )
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--config", str(config)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        lines = []
        for line in process.stdout:
            lines.append(line)
            if line.startswith("repro-service listening on "):
                url = line.split()[-1]
                break
        else:
            pytest.fail("no ready line:\n" + "".join(lines))
        assert process.stdout.readline().strip() == "frontend=async"
        batch = {"queries": [
            {"dataset": "d", "kind": kind, "epsilon": epsilon}
            for kind, epsilon in (("mean", 0.5), ("variance", 0.5), ("iqr", 0.5), ("mean", 0.25))
        ]}
        request = urllib.request.Request(
            url + "/query", data=json.dumps(batch).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            answers = json.loads(response.read())["answers"]
        assert [answer["status"] for answer in answers] == ["ok"] * 4
        workers = _descendants(process.pid)
        assert len(workers) >= 2
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=15) == 0
        deadline = time.monotonic() + 15
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
        assert "Traceback" not in process.stdout.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()

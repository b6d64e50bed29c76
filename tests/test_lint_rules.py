"""Per-rule fixture tests: each REP rule has trigger and pass snippets.

Every fixture is a small in-memory module linted through the real rule
objects (via :class:`repro.lint.ModuleContext`), asserting the exact rule
id and line number — the same contract the CI job relies on.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    AuditCoverageRule,
    ClusterBudgetIsolationRule,
    EstimatorSpecRule,
    FrontEndContainmentRule,
    GlobalRngRule,
    LockDisciplineRule,
    ModuleContext,
    ReserveCommitRule,
    SketchContractRule,
)


def run_rule(rule, source, display="src/repro/somewhere.py"):
    module = ModuleContext.from_source(
        textwrap.dedent(source), Path(display), display
    )
    return list(rule.check(module))


def lines_of(findings):
    return sorted(finding.line for finding in findings)


# ---------------------------------------------------------------------------
# REP001 — global RNG
# ---------------------------------------------------------------------------
class TestGlobalRng:
    def test_numpy_module_function_flagged(self):
        findings = run_rule(
            GlobalRngRule(),
            """\
            import numpy as np

            def draw():
                return np.random.normal(0.0, 1.0)
            """,
        )
        assert [f.rule_id for f in findings] == ["REP001"]
        assert findings[0].line == 4
        assert "hidden global NumPy RNG" in findings[0].message

    def test_argless_seed_sequence_flagged_seeded_ok(self):
        findings = run_rule(
            GlobalRngRule(),
            """\
            import numpy as np

            fresh = np.random.SeedSequence()
            seeded = np.random.SeedSequence(1234)
            gen = np.random.default_rng(7)
            """,
        )
        assert lines_of(findings) == [3]
        assert findings[0].rule_id == "REP001"
        assert "fresh OS entropy" in findings[0].message

    def test_stdlib_random_functions_flagged(self):
        findings = run_rule(
            GlobalRngRule(),
            """\
            import random

            def shuffle_in_place(items):
                random.shuffle(items)
                return random.random()
            """,
        )
        assert lines_of(findings) == [4, 5]
        assert {f.rule_id for f in findings} == {"REP001"}

    def test_from_import_member_resolved(self):
        findings = run_rule(
            GlobalRngRule(),
            """\
            from numpy.random import default_rng
            from random import randint

            a = default_rng()
            b = default_rng(99)
            c = randint(0, 10)
            """,
        )
        assert lines_of(findings) == [4, 6]

    def test_whitelisted_seeding_site_exempt(self):
        findings = run_rule(
            GlobalRngRule(),
            """\
            import numpy as np

            def resolve():
                return np.random.default_rng()
            """,
            display="src/repro/_rng.py",
        )
        assert findings == []

    def test_generator_method_calls_not_flagged(self):
        findings = run_rule(
            GlobalRngRule(),
            """\
            import numpy as np

            def draw(rng: np.random.Generator):
                return rng.normal(size=3)
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# REP002 — lock discipline
# ---------------------------------------------------------------------------
_LOCKED_CLASS = """\
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):
        return self._count
"""


class TestLockDiscipline:
    def test_unguarded_read_flagged(self):
        findings = run_rule(LockDisciplineRule(), _LOCKED_CLASS)
        assert [f.rule_id for f in findings] == ["REP002"]
        assert findings[0].line == 13
        assert "'self._count'" in findings[0].message

    def test_guarded_class_clean(self):
        findings = run_rule(
            LockDisciplineRule(),
            """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def peek(self):
                    with self._lock:
                        return self._count
            """,
        )
        assert findings == []

    def test_caller_must_hold_docstring_exempts(self):
        findings = run_rule(
            LockDisciplineRule(),
            """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def _bump_locked(self):
                    \"\"\"Caller must hold ``self._lock``.\"\"\"
                    self._count += 1
            """,
        )
        assert findings == []

    def test_mutator_call_counts_as_write(self):
        findings = run_rule(
            LockDisciplineRule(),
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    self._items.append(item)
            """,
        )
        assert lines_of(findings) == [9]
        assert "'self._items'" in findings[0].message

    def test_dataclass_lock_annotation_detected(self):
        findings = run_rule(
            LockDisciplineRule(),
            """\
            import threading
            from dataclasses import dataclass, field

            @dataclass
            class Ledger:
                _lock: threading.RLock = field(default_factory=threading.RLock)
                total: float = 0.0

                def charge(self, amount):
                    self.total += amount
            """,
        )
        assert lines_of(findings) == [10]

    def test_class_without_lock_ignored(self):
        findings = run_rule(
            LockDisciplineRule(),
            """\
            class Plain:
                def __init__(self):
                    self._count = 0

                def bump(self):
                    self._count += 1
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# REP003 — reserve/commit pairing
# ---------------------------------------------------------------------------
class TestReserveCommit:
    def test_unpaired_reserve_flagged(self):
        findings = run_rule(
            ReserveCommitRule(),
            """\
            class Runner:
                def handle(self, budget, request):
                    reservation = budget.reserve(request.epsilon)
                    return self._execute(request)

                def _execute(self, request):
                    return request
            """,
        )
        assert [f.rule_id for f in findings] == ["REP003"]
        assert findings[0].line == 3
        assert "leaks the reservation" in findings[0].message

    def test_reserve_with_commit_and_cancel_clean(self):
        findings = run_rule(
            ReserveCommitRule(),
            """\
            class Runner:
                def handle(self, budget, request):
                    reservation = budget.reserve(request.epsilon)
                    try:
                        result = self._execute(request)
                    except Exception:
                        budget.cancel(reservation)
                        raise
                    budget.commit(reservation, request.epsilon)
                    return result
            """,
        )
        assert findings == []

    def test_interprocedural_resolution_through_helper(self):
        findings = run_rule(
            ReserveCommitRule(),
            """\
            class Runner:
                def handle(self, budget, request):
                    reservation = budget.reserve(request.epsilon)
                    return self._settle(budget, reservation)

                def _settle(self, budget, reservation):
                    budget.commit(reservation, 0.5)
            """,
        )
        assert findings == []

    def test_returned_reservation_is_ownership_transfer(self):
        findings = run_rule(
            ReserveCommitRule(),
            """\
            def acquire(budget, epsilon):
                return budget.reserve(epsilon)
            """,
        )
        assert findings == []

    def test_discarded_reservation_always_flagged(self):
        findings = run_rule(
            ReserveCommitRule(),
            """\
            class Runner:
                def handle(self, budget, request):
                    budget.reserve(request.epsilon)
                    budget.commit(None, 0.0)
            """,
        )
        assert [f.rule_id for f in findings] == ["REP003"]
        assert findings[0].line == 3
        assert "discarded" in findings[0].message


# ---------------------------------------------------------------------------
# REP004 — estimator-spec conformance
# ---------------------------------------------------------------------------
class TestEstimatorSpec:
    def test_missing_reservation_and_min_records_flagged(self):
        findings = run_rule(
            EstimatorSpecRule(),
            """\
            from repro.estimators import register_estimator

            @register_estimator("demo", scalar=True)
            def run_demo(data, epsilon, beta, rng, params):
                return 0.0
            """,
        )
        assert [f.rule_id for f in findings] == ["REP004", "REP004"]
        assert lines_of(findings) == [3, 3]
        messages = " ".join(f.message for f in findings)
        assert "reservation=" in messages and "min_records=" in messages

    def test_explicit_spec_clean(self):
        findings = run_rule(
            EstimatorSpecRule(),
            """\
            from repro.estimators import register_estimator
            from repro.estimators.spec import ParamField

            @register_estimator(
                "demo",
                reservation=1.0,
                min_records=8,
                params=[ParamField("radius", minimum=0.0)],
            )
            def run_demo(data, epsilon, beta, rng, params):
                return 0.0
            """,
        )
        assert findings == []

    def test_unbounded_numeric_param_flagged(self):
        findings = run_rule(
            EstimatorSpecRule(),
            """\
            from repro.estimators.spec import ParamField

            FIELD = ParamField("radius", type="float")
            """,
        )
        assert [f.rule_id for f in findings] == ["REP004"]
        assert findings[0].line == 3
        assert "ParamField 'radius'" in findings[0].message

    def test_levels_param_exempt_from_bounds(self):
        findings = run_rule(
            EstimatorSpecRule(),
            """\
            from repro.estimators.spec import ParamField

            FIELD = ParamField("levels", type="levels")
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# REP005 — front-end exception containment
# ---------------------------------------------------------------------------
_UNCONTAINED_HANDLER = """\
class Handler:
    def do_GET(self):
        payload = self._route()
        self._send_json(200, payload)
"""

_CONTAINED_HANDLER = """\
class Handler:
    def do_GET(self):
        try:
            payload = self._route()
            self._send_json(200, payload)
        except Exception as exc:
            self._send_json(500, {"error": str(exc)})
"""


class TestFrontEndContainment:
    def test_uncontained_handler_flagged(self):
        findings = run_rule(
            FrontEndContainmentRule(),
            _UNCONTAINED_HANDLER,
            display="src/repro/service/http.py",
        )
        assert [f.rule_id for f in findings] == ["REP005"]
        assert findings[0].line == 2
        assert "do_GET" in findings[0].message

    def test_contained_handler_clean(self):
        findings = run_rule(
            FrontEndContainmentRule(),
            _CONTAINED_HANDLER,
            display="src/repro/service/http.py",
        )
        assert findings == []

    def test_out_of_scope_file_ignored(self):
        findings = run_rule(
            FrontEndContainmentRule(),
            _UNCONTAINED_HANDLER,
            display="src/repro/service/executor.py",
        )
        assert findings == []

    def test_bare_reraise_handler_not_containment(self):
        findings = run_rule(
            FrontEndContainmentRule(),
            """\
            class Handler:
                def do_POST(self):
                    try:
                        self._route()
                    except Exception:
                        raise
            """,
            display="src/repro/service/http.py",
        )
        assert [f.rule_id for f in findings] == ["REP005"]

    def test_async_connection_handler_in_scope(self):
        findings = run_rule(
            FrontEndContainmentRule(),
            """\
            class Connection:
                def _serve(self):
                    head = self._frame()
                    self._answer(head)
            """,
            display="src/repro/service/aio.py",
        )
        assert [f.rule_id for f in findings] == ["REP005"]
        assert findings[0].line == 2

    def test_request_core_handle_in_scope(self):
        findings = run_rule(
            FrontEndContainmentRule(),
            """\
            class App:
                def handle(self, method, path, headers, body):
                    return self._route(method, path, headers, body)
            """,
            display="src/repro/service/app.py",
        )
        assert [f.rule_id for f in findings] == ["REP005"]
        assert findings[0].line == 2

    def test_contained_request_core_handle_clean(self):
        findings = run_rule(
            FrontEndContainmentRule(),
            """\
            class App:
                def handle(self, method, path, headers, body):
                    trace = None
                    try:
                        return self._route(method, path, headers, body)
                    except Exception as exc:
                        return self._failure(trace, exc)
            """,
            display="src/repro/service/app.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# REP006 — audit-trail coverage of budget/cache touch-points
# ---------------------------------------------------------------------------
class TestAuditCoverage:
    def test_unaudited_commit_flagged(self):
        findings = run_rule(
            AuditCoverageRule(),
            """\
            class Service:
                def settle(self, entry):
                    return entry.dataset.budget.commit(entry.reservation, 0.5)
            """,
            display="src/repro/service/executor.py",
        )
        assert [f.rule_id for f in findings] == ["REP006"]
        assert findings[0].line == 3
        assert "privacy budget" in findings[0].message

    def test_direct_audit_call_clean(self):
        findings = run_rule(
            AuditCoverageRule(),
            """\
            class Service:
                def settle(self, entry):
                    actual = entry.dataset.budget.commit(entry.reservation, 0.5)
                    self._audit_event("commit", epsilon=actual)
                    return actual
            """,
            display="src/repro/service/executor.py",
        )
        assert findings == []

    def test_transitive_helper_audit_clean(self):
        findings = run_rule(
            AuditCoverageRule(),
            """\
            class Service:
                def settle(self, entry):
                    actual = entry.dataset.budget.commit(entry.reservation, 0.5)
                    self._finish(actual)
                    return actual

                def _finish(self, actual):
                    self.audit.record("commit", epsilon=actual)
            """,
            display="src/repro/service/executor.py",
        )
        assert findings == []

    def test_unaudited_cache_hit_flagged(self):
        findings = run_rule(
            AuditCoverageRule(),
            """\
            class Service:
                def lookup(self, key):
                    return self._cache.get(key)
            """,
            display="src/repro/service/executor.py",
        )
        assert [f.rule_id for f in findings] == ["REP006"]
        assert "answer cache" in findings[0].message

    def test_budget_peek_probe_exempt(self):
        findings = run_rule(
            AuditCoverageRule(),
            """\
            class Service:
                def probe(self, dataset, epsilon):
                    return dataset.budget.peek(epsilon)
            """,
            display="src/repro/service/executor.py",
        )
        assert findings == []

    def test_out_of_scope_file_ignored(self):
        findings = run_rule(
            AuditCoverageRule(),
            """\
            class Pool:
                def settle(self, entry):
                    return entry.dataset.budget.commit(entry.reservation, 0.5)
            """,
            display="src/repro/engine/pool.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# REP007 — sketch contract: needs=("sorted",) runners must not re-sort
# ---------------------------------------------------------------------------
class TestSketchContract:
    def test_np_sort_on_data_argument_flagged(self):
        findings = run_rule(
            SketchContractRule(),
            """\
            import numpy as np
            from repro.estimators import register_estimator

            @register_estimator("k", reservation=1.0, min_records=8,
                                needs=("sorted",))
            def run_k(data, generator, ledger, *, epsilon, beta):
                ordered = np.sort(np.asarray(data, dtype=float))
                return float(ordered[0])
            """,
        )
        assert [f.rule_id for f in findings] == ["REP007"]
        assert lines_of(findings) == [7]

    def test_inplace_sort_on_data_argument_flagged(self):
        findings = run_rule(
            SketchContractRule(),
            """\
            from repro.estimators import register_estimator

            @register_estimator("k", reservation=1.0, min_records=8,
                                needs=("sorted", "sorted_abs"))
            def run_k(data, generator, ledger, *, epsilon, beta):
                data.sort()
                return float(data[0])
            """,
        )
        assert [f.rule_id for f in findings] == ["REP007"]
        assert lines_of(findings) == [6]

    def test_sketch_reading_runner_passes(self):
        findings = run_rule(
            SketchContractRule(),
            """\
            import numpy as np
            from repro.estimators import register_estimator

            @register_estimator("k", reservation=1.0, min_records=8,
                                needs=("sorted",))
            def run_k(data, generator, ledger, *, epsilon, beta):
                ordered = data.sorted_values
                return float(ordered[0])
            """,
        )
        assert findings == []

    def test_sorting_other_arrays_passes(self):
        findings = run_rule(
            SketchContractRule(),
            """\
            import numpy as np
            from repro.estimators import register_estimator

            @register_estimator("k", reservation=1.0, min_records=8,
                                needs=("sorted",))
            def run_k(data, generator, ledger, *, epsilon, beta):
                noise = generator.standard_normal(8)
                return float(np.sort(noise)[0])
            """,
        )
        assert findings == []

    def test_runner_without_needs_may_sort(self):
        findings = run_rule(
            SketchContractRule(),
            """\
            import numpy as np
            from repro.estimators import register_estimator

            @register_estimator("k", reservation=1.0, min_records=8)
            def run_k(data, generator, ledger, *, epsilon, beta):
                return float(np.sort(data)[0])
            """,
        )
        assert findings == []

    def test_moments_only_needs_may_sort(self):
        findings = run_rule(
            SketchContractRule(),
            """\
            import numpy as np
            from repro.estimators import register_estimator

            @register_estimator("k", reservation=1.0, min_records=8,
                                needs=("moments",))
            def run_k(data, generator, ledger, *, epsilon, beta):
                return float(np.sort(data)[0])
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# REP008 — cluster budget isolation
# ---------------------------------------------------------------------------
class TestClusterBudgetIsolation:
    CLUSTER = "src/repro/cluster/router.py"

    def test_constructor_flagged_in_cluster_module(self):
        findings = run_rule(
            ClusterBudgetIsolationRule(),
            "from repro.service.registry import BudgetManager\n"
            "ledger = BudgetManager(10.0)\n",
            display=self.CLUSTER,
        )
        assert [f.rule_id for f in findings] == ["REP008", "REP008"]
        assert lines_of(findings) == [1, 2]  # import and constructor

    def test_dotted_constructor_flagged(self):
        findings = run_rule(
            ClusterBudgetIsolationRule(),
            "import repro.service.registry as registry\n"
            "ledger = registry.BudgetManager(10.0)\n",
            display=self.CLUSTER,
        )
        assert lines_of(findings) == [2]

    def test_mutating_protocol_calls_flagged(self):
        findings = run_rule(
            ClusterBudgetIsolationRule(),
            "def admit(manager):\n"
            "    r = manager.reserve(1.0)\n"
            "    manager.commit(r, 0.5, label='q')\n"
            "    manager.cancel(r)\n"
            "    manager.rotate_analyst_budgets({})\n",
            display=self.CLUSTER,
        )
        assert [f.rule_id for f in findings] == ["REP008"] * 4
        assert lines_of(findings) == [2, 3, 4, 5]

    def test_coordinator_module_exempt(self):
        findings = run_rule(
            ClusterBudgetIsolationRule(),
            "from repro.service.registry import BudgetManager\n"
            "ledger = BudgetManager(10.0)\n"
            "r = ledger.reserve(1.0)\n",
            display="src/repro/cluster/coordinator.py",
        )
        assert findings == []

    def test_out_of_scope_modules_exempt(self):
        source = (
            "from repro.service.registry import BudgetManager\n"
            "ledger = BudgetManager(10.0)\n"
            "ledger.reserve(1.0)\n"
        )
        for display in (
            "src/repro/service/registry.py",
            "src/repro/service/config.py",
            "tests/test_cluster_router.py",
        ):
            assert run_rule(
                ClusterBudgetIsolationRule(), source, display=display
            ) == []

    def test_rpc_string_ops_pass(self):
        findings = run_rule(
            ClusterBudgetIsolationRule(),
            "def admit(client):\n"
            "    return client.call('reserve', group='g', amount=1.0)\n",
            display=self.CLUSTER,
        )
        assert findings == []

    def test_real_cluster_sources_clean(self):
        rule = ClusterBudgetIsolationRule()
        root = Path(__file__).resolve().parent.parent
        for path in sorted((root / "src/repro/cluster").glob("*.py")):
            display = path.relative_to(root).as_posix()
            module = ModuleContext.from_source(
                path.read_text(encoding="utf-8"), path, display
            )
            assert list(rule.check(module)) == [], display


# ---------------------------------------------------------------------------
# Injected-violation sweep: one scratch module per rule, correct id + line.
# ---------------------------------------------------------------------------
INJECTED = [
    ("REP001", GlobalRngRule(), "import numpy as np\nx = np.random.normal()\n", 2),
    (
        "REP002",
        LockDisciplineRule(),
        (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._state = 0\n"
            "    def set(self, v):\n"
            "        self._state = v\n"
        ),
        7,
    ),
    (
        "REP003",
        ReserveCommitRule(),
        (
            "def go(budget):\n"
            "    r = budget.reserve(1.0)\n"
            "    return 1\n"
        ),
        2,
    ),
    (
        "REP004",
        EstimatorSpecRule(),
        "from repro.estimators.spec import ParamField\nf = ParamField('x')\n",
        2,
    ),
    (
        "REP005",
        FrontEndContainmentRule(),
        "class H:\n    def do_GET(self):\n        self.route()\n",
        2,
    ),
    (
        "REP006",
        AuditCoverageRule(),
        "class S:\n    def settle(self, d, r):\n        return d.budget.commit(r, 0.5)\n",
        3,
    ),
    (
        "REP007",
        SketchContractRule(),
        (
            "import numpy as np\n"
            "from repro.estimators import register_estimator\n"
            "@register_estimator('k', reservation=1.0, min_records=8,\n"
            "                    needs=('sorted',))\n"
            "def run_k(data, generator, ledger, *, epsilon, beta):\n"
            "    return float(np.sort(data)[0])\n"
        ),
        6,
    ),
    (
        "REP008",
        ClusterBudgetIsolationRule(),
        "def boot():\n    from repro.service.registry import BudgetManager\n",
        2,
    ),
]


@pytest.mark.parametrize(
    "rule_id,rule,source,line", INJECTED, ids=[case[0] for case in INJECTED]
)
def test_injected_violation_caught_with_id_file_line(rule_id, rule, source, line, tmp_path):
    display = {
        "REP005": "src/repro/service/http.py",
        "REP006": "src/repro/service/executor.py",
        "REP008": "src/repro/cluster/router.py",
    }.get(rule_id, "scratch/mod.py")
    findings = run_rule(rule, source, display=display)
    assert findings, f"{rule_id} fixture produced no findings"
    assert findings[0].rule_id == rule_id
    assert findings[0].file == display
    assert findings[0].line == line

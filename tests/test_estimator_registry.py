"""Registry conformance suite: every registered spec honours the service contract.

Three families of checks:

* **Pre-refactor parity** — the five built-in kinds must reproduce the
  recorded pre-registry :class:`QueryService` answers (cache keys *and*
  values) bit for bit; the registry is a refactor, not a behaviour change.
  Likewise ``iqr`` and ``quantile`` answers at n = 100k, recorded before the
  certified narrow rank window, at ``workers=1`` and ``workers=2``.
* **Conformance per spec** — for *every* registered kind (including each
  ``baseline.*`` adapter): the reservation is an upper bound on the
  committed ledger spend, a dataset below ``min_records`` is refused before
  any spend, and answers are bit-for-bit identical for ``workers=1`` and
  ``workers=N``.
* **Sketch-path conformance** — for every registered kind, answers are
  bit-for-bit identical whether the dataset carries registration-time
  sketches (``sketches=True``, the default) or is the bare pre-refactor
  array, serially and across a 4-worker pool, and whether same-kind queries
  execute grouped (one ``submit_many`` cell) or as singletons.
* **Registry mechanics** — registration, duplicate rejection, unregistration
  and the unknown-kind error carrying the authoritative kind list.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import EnginePool
from repro.estimators import (
    EstimatorSpec,
    ParamField,
    UnknownKindError,
    get_estimator,
    iter_estimators,
    register_estimator,
    registered_kinds,
    unregister,
)
from repro.exceptions import DomainError
from repro.service import Query, QueryRequest, QueryService

PARITY_FIXTURE = Path(__file__).parent / "data" / "service_parity.json"
#: Answers at n = 100k, where the quantile draws use narrow rank windows.
LARGE_PARITY_FIXTURE = Path(__file__).parent / "data" / "service_parity_large.json"

#: One spare worker pool shared by the parity checks of every kind.
POOL_WORKERS = 2


def _dataset_for(spec: EstimatorSpec, records: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if spec.dimension == "multivariate":
        return rng.normal(5.0, 2.0, size=(records, 3))
    return rng.normal(250.0, 40.0, size=records)


def _query_for(spec: EstimatorSpec, epsilon: float = 0.5) -> Query:
    return Query(
        kind=spec.name, epsilon=epsilon, params=tuple(spec.example_params().items())
    )


@pytest.fixture(scope="module", params=[spec.name for spec in iter_estimators()])
def spec(request) -> EstimatorSpec:
    return get_estimator(request.param)


@pytest.fixture(scope="module")
def pool():
    with EnginePool(POOL_WORKERS) as pool:
        yield pool


@pytest.fixture(scope="module")
def pool4():
    """Wider pool for the sketch-parity sweep (the workers=4 pin)."""
    with EnginePool(4) as pool:
        yield pool


class TestPreRefactorParity:
    def test_recorded_answers_reproduced_bit_for_bit(self):
        doc = json.loads(PARITY_FIXTURE.read_text())
        seed = doc["seed"]
        rng = np.random.default_rng(seed)
        uni = rng.normal(250.0, 40.0, size=4096)
        multi = rng.normal(0.0, 1.0, size=(4096, 3))
        service = QueryService(seed=seed)
        service.register("uni", uni, 100.0)
        service.register("multi", multi, 100.0)
        for record in doc["answers"]:
            query = Query.from_json(record["query"])
            answer = service.submit(
                QueryRequest(dataset=record["dataset"], query=query)
            )
            assert answer.ok, answer
            assert answer.key == record["key"]
            value = (
                list(answer.value)
                if isinstance(answer.value, tuple)
                else answer.value
            )
            assert value == record["value"]
            assert answer.epsilon_charged == record["epsilon_charged"]


    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_recorded_large_answers_reproduced_bit_for_bit(self, workers, pool):
        doc = json.loads(LARGE_PARITY_FIXTURE.read_text())
        seed = doc["seed"]
        data = np.random.default_rng(seed).normal(50.0, 10.0, size=doc["records"])
        use_pool = workers > 1
        service = QueryService(seed=seed, pool=pool if use_pool else None)
        service.register("big", data, 100.0, share=use_pool)
        requests = [
            QueryRequest(dataset=record["dataset"], query=Query.from_json(record["query"]))
            for record in doc["answers"]
        ]
        try:
            answers = service.submit_many(requests)
        finally:
            service.registry.close()
        for record, answer in zip(doc["answers"], answers):
            assert answer.ok, answer
            assert answer.key == record["key"]
            value = (
                list(answer.value)
                if isinstance(answer.value, tuple)
                else answer.value
            )
            assert value == record["value"]
            assert answer.epsilon_charged == record["epsilon_charged"]


class TestSpecConformance:
    def test_reservation_covers_committed_spend(self, spec):
        """reserve >= commit: the factor is an exact upper bound per kind."""
        service = QueryService(seed=11)
        service.register("d", _dataset_for(spec, 512), 100.0)
        query = _query_for(spec, epsilon=0.8)
        answer = service.submit(QueryRequest(dataset="d", query=query))
        # A 'failed' outcome (e.g. a rejected PTR check) is a valid budgeted
        # release; its partial spend must still respect the reservation.
        assert answer.status in ("ok", "failed"), answer
        reserve = 0.8 * spec.reservation
        assert answer.epsilon_charged <= reserve + 1e-12
        budget = service.registry.get("d").budget
        assert budget.spent == answer.epsilon_charged
        assert budget.reserved == 0.0

    def test_min_records_refused_before_any_spend(self, spec):
        service = QueryService(seed=11)
        service.register("tiny", _dataset_for(spec, spec.min_records - 1), 100.0)
        answer = service.submit(
            QueryRequest(dataset="tiny", query=_query_for(spec))
        )
        assert answer.status == "invalid"
        assert answer.error == "insufficient_data"
        budget = service.registry.get("tiny").budget
        assert budget.spent == 0.0
        assert budget.reserved == 0.0
        assert len(budget.ledger) == 0

    def test_worker_parity(self, spec, pool):
        """workers=1 and workers=N answers are bit-for-bit identical."""
        data = _dataset_for(spec, 512)
        requests = [
            QueryRequest(dataset="d", query=_query_for(spec, epsilon=eps))
            for eps in (0.3, 0.5, 0.7)
        ]

        def answers(use_pool):
            service = QueryService(seed=99, pool=pool if use_pool else None)
            service.register("d", data, 100.0, share=use_pool)
            try:
                return [
                    (a.status, a.value, a.epsilon_charged)
                    for a in service.submit_many(requests)
                ]
            finally:
                service.registry.close()

        assert answers(False) == answers(True)


class TestSketchPathConformance:
    """The DatasetView/sketch refactor is invisible in answers.

    ``sketches=False`` registration is the exact pre-refactor execution
    path, so equality here pins the whole sketch machinery — registration-
    time materialisation, estimator fast paths, grouped execution, and the
    shared-memory sketch hand-off — to bit-for-bit behavioural neutrality.
    """

    def _answers(self, spec, data, *, sketches, pool=None, share=False):
        service = QueryService(seed=424, pool=pool)
        service.register("d", data, 100.0, sketches=sketches, share=share)
        requests = [
            QueryRequest(dataset="d", query=_query_for(spec, epsilon=eps))
            for eps in (0.3, 0.5, 0.7)
        ]
        try:
            return [
                (a.status, a.value, a.epsilon_charged, a.key, a.message)
                for a in service.submit_many(requests)
            ]
        finally:
            service.registry.close()

    def test_sketch_parity_every_kind_serial_and_pooled(self, spec, pool4):
        """sketches on == sketches off, at workers=1 and workers=4."""
        data = _dataset_for(spec, 512)
        legacy = self._answers(spec, data, sketches=False)
        assert self._answers(spec, data, sketches=True) == legacy
        assert (
            self._answers(spec, data, sketches=True, pool=pool4, share=True)
            == legacy
        )

    def test_declared_sketches_materialised_at_registration(self):
        service = QueryService(seed=1)
        dataset = service.register(
            "d", np.random.default_rng(0).normal(size=256), 10.0
        )
        view = dataset.view
        assert view is not None
        for kind in ("iqr", "quantile", "baseline.dwork_lei_iqr"):
            for need in get_estimator(kind).needs:
                assert view.has(need), (kind, need)
        np.testing.assert_array_equal(view.sorted_values, np.sort(view.raw))
        doc = dataset.to_json()
        assert doc["sketches"]["total_nbytes"] == view.sketch_nbytes() > 0
        assert doc["sketches"]["names"] == list(view.sketch_footprint())

    def test_grouped_matches_singleton_submission(self):
        """submit_many groups same-kind queries; answers must not change."""
        data = _dataset_for(get_estimator("iqr"), 512)
        requests = [
            QueryRequest(dataset="d", query=Query(kind=kind, epsilon=eps))
            for kind in ("iqr", "mean", "baseline.dwork_lei_iqr")
            for eps in (0.3, 0.5, 0.7)
        ]

        def answers(batched):
            service = QueryService(seed=77)
            service.register("d", data, 100.0)
            produced = (
                service.submit_many(requests)
                if batched
                else [service.submit(r) for r in requests]
            )
            return [(a.status, a.value, a.epsilon_charged) for a in produced]

        assert answers(True) == answers(False)

    def test_batchable_false_kind_runs_per_query(self):
        """Kinds opting out of grouping still answer identically in a batch."""

        @register_estimator(
            "test.unbatchable", reservation=1.0, min_records=4, batchable=False
        )
        def run_unbatchable(data, generator, ledger, *, epsilon, beta):
            ledger.charge("test.unbatchable", epsilon)
            return float(np.mean(np.asarray(data)) + generator.normal(0.0, 1.0))

        try:
            assert not get_estimator("test.unbatchable").batchable
            requests = [
                QueryRequest(
                    dataset="d", query=Query(kind="test.unbatchable", epsilon=eps)
                )
                for eps in (0.3, 0.5, 0.7)
            ]

            def answers(batched):
                service = QueryService(seed=31)
                service.register("d", np.arange(64.0), 100.0)
                produced = (
                    service.submit_many(requests)
                    if batched
                    else [service.submit(r) for r in requests]
                )
                return [(a.status, a.value, a.epsilon_charged) for a in produced]

            assert answers(True) == answers(False)
        finally:
            unregister("test.unbatchable")


class TestRegistryMechanics:
    def test_unknown_kind_error_carries_kind_list(self):
        with pytest.raises(UnknownKindError) as excinfo:
            get_estimator("nope")
        assert list(excinfo.value.kinds) == registered_kinds()

    def test_register_and_unregister_custom_kind(self):
        @register_estimator(
            "test.custom",
            reservation=2.0,
            min_records=4,
            params=(ParamField("shift", default=0.0),),
        )
        def run_custom(data, generator, ledger, *, epsilon, beta, shift):
            ledger.charge("test.custom", epsilon)
            return float(np.mean(data) + shift)

        try:
            assert "test.custom" in registered_kinds()
            spec = get_estimator("test.custom")
            assert spec.reservation == 2.0
            # Immediately servable end-to-end, no service changes needed.
            service = QueryService(seed=5)
            service.register("d", np.arange(16.0), 10.0)
            answer = service.query("d", "test.custom", 0.5, params={"shift": 1.0})
            assert answer.ok and answer.value == pytest.approx(8.5)
            assert answer.epsilon_charged == 0.5
        finally:
            unregister("test.custom")
        assert "test.custom" not in registered_kinds()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DomainError):

            @register_estimator("mean")
            def clash(data, generator, ledger, *, epsilon, beta):  # pragma: no cover
                return 0.0

    def test_every_spec_has_valid_examples(self):
        for spec in iter_estimators():
            params = spec.example_params()
            for field in spec.params:
                if field.required:
                    assert field.name in params, (spec.name, field.name)

    def test_at_least_four_baseline_kinds_registered(self):
        baselines = [k for k in registered_kinds() if k.startswith("baseline.")]
        assert len(baselines) >= 4, baselines

    def test_scalar_param_named_levels_rejected(self):
        # 'levels' is the wire-compat alias; a scalar param under that name
        # would crash the Query mirror and vanish from the cache key.
        with pytest.raises(DomainError, match="levels"):
            EstimatorSpec(
                name="test.weird",
                runner=lambda *a, **k: 0.0,
                params=(ParamField("levels", type="float", default=0.3),),
            )

    def test_dwork_lei_delta_capped_per_release(self):
        # The budget ledger tracks epsilon only; per-release deltas compose
        # additively, so the serving policy caps delta at 1e-4.
        from repro.service import InvalidQueryError

        with pytest.raises(InvalidQueryError):
            Query(
                kind="baseline.dwork_lei_iqr",
                epsilon=0.5,
                params=(("delta", 0.5),),
            )
        assert dict(
            Query(kind="baseline.dwork_lei_iqr", epsilon=0.5).params
        )["delta"] == pytest.approx(1e-6)
        # The documented cap is inclusive: delta = 1e-4 exactly is accepted.
        at_cap = Query(
            kind="baseline.dwork_lei_iqr", epsilon=0.5, params=(("delta", 1e-4),)
        )
        assert dict(at_cap.params)["delta"] == pytest.approx(1e-4)

    def test_kind_registered_after_pool_fork_fails_cleanly(self, pool):
        """Runtime registrations are invisible to already-forked workers:
        the pooled path must answer 'failed' with zero spend, not crash."""
        service = QueryService(seed=5, pool=pool)
        service.register("d", np.arange(64.0), 10.0)
        # Force the pool to fork its workers before the kind exists.
        assert service.query("d", "mean", 0.5).ok

        @register_estimator("test.late", min_records=4)
        def run_late(data, generator, ledger, *, epsilon, beta):
            ledger.charge("test.late", epsilon)
            return float(np.mean(data))

        try:
            answer = service.query("d", "test.late", 0.5)
            assert answer.status == "failed"
            assert "worker" in (answer.message or "")
            budget = service.registry.get("d").budget
            assert budget.reserved == 0.0
            # Nothing ran in the worker: the late kind committed no spend.
            assert answer.epsilon_charged == 0.0
        finally:
            unregister("test.late")


class TestAnalysisBridge:
    def test_estimator_fn_drives_statistical_grid(self):
        """Any registered kind drops into the analysis grid drivers."""
        from repro.analysis import StatisticalCell, run_statistical_grid
        from repro.distributions import Gaussian

        distribution = Gaussian(mu=5.0, sigma=2.0)
        cells = [
            StatisticalCell(
                estimator=get_estimator(kind).estimator_fn(
                    1.0, **get_estimator(kind).example_params()
                ),
                distribution=distribution,
                parameter="mean",
                n=512,
                trials=4,
                rng=17,
                key=kind,
            )
            for kind in ("mean", "baseline.bounded_laplace_mean")
        ]
        results = run_statistical_grid(cells)
        assert len(results) == 2
        for result in results:
            assert result.estimates.size == 4
            assert np.all(np.isfinite(result.estimates))

    def test_estimator_fn_validates_params_up_front(self):
        spec = get_estimator("baseline.bounded_laplace_mean")
        with pytest.raises(DomainError):
            spec.estimator_fn(1.0)  # missing required radius


class TestBaselineAccounting:
    def test_refusal_leaves_ledger_unchanged(self):
        service = QueryService(seed=3)
        service.register("d", np.random.default_rng(0).normal(0, 1, 256), 0.4)
        spec = get_estimator("baseline.bounded_laplace_mean")
        refused = service.submit(
            QueryRequest(dataset="d", query=_query_for(spec, epsilon=1.0))
        )
        assert refused.status == "refused"
        budget = service.registry.get("d").budget
        assert budget.spent == 0.0 and budget.reserved == 0.0
        assert len(budget.ledger) == 0

    def test_full_epsilon_committed_on_release(self):
        service = QueryService(seed=3)
        service.register("d", np.random.default_rng(0).normal(0, 1, 256), 5.0)
        for kind in (
            "baseline.bounded_laplace_mean",
            "baseline.karwa_vadhan_mean",
            "baseline.coinpress_mean",
            "baseline.ksu_heavy_tailed_mean",
        ):
            answer = service.submit(
                QueryRequest(dataset="d", query=_query_for(get_estimator(kind), 0.25))
            )
            assert answer.ok, answer
            assert answer.epsilon_charged == 0.25

    def test_cache_hit_zero_spend_for_baseline_kind(self):
        service = QueryService(seed=3)
        service.register("d", np.random.default_rng(0).normal(0, 1, 256), 1.0)
        spec = get_estimator("baseline.bounded_laplace_mean")
        first = service.submit(QueryRequest(dataset="d", query=_query_for(spec)))
        again = service.submit(QueryRequest(dataset="d", query=_query_for(spec)))
        assert first.ok and again.cached
        assert again.value == first.value
        assert again.epsilon_charged == 0.0

class TestLintConformance:
    """REP004 static analysis agrees with the runtime conformance suite.

    The linter checks registration *sites* (explicit ``reservation=`` /
    ``min_records=``, bounded numeric ``ParamField``\\ s); the runtime checks
    the *resulting specs*.  No spec may pass one gate but not the other, so
    a regression in either is caught by this single test.
    """

    #: ParamField types the linter exempts from bounds (mirrors REP004).
    _UNBOUNDED_TYPES = {"levels", "str", "string", "bool"}

    def _runtime_violations(self):
        violations = []
        for spec in iter_estimators():
            if not spec.reservation > 0.0:
                violations.append(f"{spec.name}: reservation={spec.reservation}")
            if spec.min_records < 1:
                violations.append(f"{spec.name}: min_records={spec.min_records}")
            for param in spec.params:
                if param.type in self._UNBOUNDED_TYPES:
                    continue
                if param.minimum is None and param.maximum is None:
                    violations.append(f"{spec.name}: param {param.name!r} unbounded")
        return violations

    def test_static_and_runtime_conformance_agree(self):
        from repro.lint import lint_paths, render_text

        estimators_dir = Path(__file__).parent.parent / "src" / "repro" / "estimators"
        static = lint_paths([estimators_dir], select=["REP004"])
        runtime = self._runtime_violations()
        # Agreement means both gates pass on the live registry modules: a
        # spec sneaking an implicit default past one would trip the other.
        assert static.findings == [], render_text(static)
        assert runtime == [], runtime

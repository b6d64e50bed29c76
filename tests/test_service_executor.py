"""Tests for :class:`repro.service.QueryService` — the acceptance contract.

The three headline properties:

* a registered dataset with total budget B refuses the first query that would
  exceed B (structured refusal, ledger unchanged);
* identical repeated queries are answered from cache with zero additional
  spend;
* answers are bit-for-bit identical for ``workers=1`` vs ``workers=N`` under
  a fixed service seed.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.engine import EnginePool
from repro.obs import AuditLog, replay_spend
from repro.service import (
    AnswerCache,
    Query,
    QueryRequest,
    QueryService,
)

ENGINE_WORKERS = int(os.environ.get("REPRO_ENGINE_WORKERS", "3"))


@pytest.fixture
def data():
    return np.random.default_rng(3).normal(100.0, 15.0, size=12_000)


def make_service(data, *, budget=20.0, seed=11, pool=None, cache=None, **kwargs):
    service = QueryService(pool=pool, seed=seed, cache=cache)
    service.register("d", data, budget, **kwargs)
    return service


class TestBasicAnswers:
    def test_mean_answer_is_reasonable(self, data):
        answer = make_service(data).query("d", "mean", epsilon=1.0)
        assert answer.ok
        assert answer.value == pytest.approx(100.0, abs=3.0)
        assert 0.0 < answer.epsilon_charged <= 1.0 + 1e-9
        assert answer.remaining == pytest.approx(20.0 - answer.epsilon_charged)

    def test_quantile_answer_is_a_tuple(self, data):
        answer = make_service(data).query("d", "quantile", epsilon=0.5, levels=[0.25, 0.75])
        assert answer.ok
        assert len(answer.value) == 2
        assert answer.value[0] < answer.value[1]

    def test_multivariate_mean(self):
        matrix = np.random.default_rng(5).normal(0.0, 1.0, size=(6000, 3))
        service = QueryService(seed=2)
        service.register("m", matrix, 5.0)
        answer = service.query("m", "multivariate_mean", epsilon=1.0)
        assert answer.ok
        assert len(answer.value) == 3
        assert all(abs(v) < 1.0 for v in answer.value)

    def test_unknown_dataset_is_invalid_not_exception(self, data):
        answer = make_service(data).query("nope", "mean", epsilon=0.5)
        assert answer.status == "invalid"
        assert answer.error == "unknown_dataset"
        assert answer.epsilon_charged == 0.0

    def test_malformed_query_is_invalid(self, data):
        answer = make_service(data).query("d", "quantile", epsilon=0.5)  # no levels
        assert answer.status == "invalid"
        assert answer.error == "invalid_query"

    def test_shape_mismatch_is_invalid(self, data):
        answer = make_service(data).query("d", "multivariate_mean", epsilon=0.5)
        assert answer.status == "invalid"

    def test_fixed_seed_reproducible_across_services(self, data):
        first = make_service(data, seed=9).query("d", "mean", epsilon=0.5)
        second = make_service(data, seed=9).query("d", "mean", epsilon=0.5)
        assert first.value == second.value

    def test_unseeded_service_draws_fresh_noise(self, data):
        service = make_service(data, seed=None, cache=AnswerCache(maxsize=0))
        first = service.query("d", "mean", epsilon=0.5)
        second = service.query("d", "mean", epsilon=0.5)
        assert first.value != second.value


class TestBudgetEnforcement:
    def test_refusal_is_structured_and_ledger_unchanged(self, data):
        service = make_service(data, budget=1.0)
        ok = service.query("d", "mean", epsilon=0.6)
        assert ok.ok
        budget = service.registry.get("d").budget
        spends_before = list(budget.ledger)
        refused = service.query("d", "iqr", epsilon=0.6)
        assert refused.status == "refused"
        assert refused.error == "budget_exceeded"
        assert refused.epsilon_charged == 0.0
        assert list(budget.ledger) == spends_before
        # The refusal reports how much is actually left.
        assert refused.remaining == pytest.approx(budget.remaining)

    def test_budget_is_charged_with_actual_spend(self, data):
        service = make_service(data, budget=10.0)
        answer = service.query("d", "mean", epsilon=0.5)
        budget = service.registry.get("d").budget
        # estimate_mean's amplified sub-sample probe spends less than nominal.
        assert 0.0 < answer.epsilon_charged <= 0.5
        assert budget.spent == pytest.approx(answer.epsilon_charged)
        assert budget.reserved == 0.0

    def test_variance_reservation_covers_overshoot(self, data):
        """Variance records more epsilon than requested; admission must cover it."""
        service = make_service(data, budget=10.0)
        answer = service.query("d", "variance", epsilon=1.0)
        assert answer.ok
        assert answer.epsilon_charged == pytest.approx(1.125)
        # A budget that fits the nominal epsilon but not the true spend refuses.
        tight = make_service(data, budget=1.0)
        refused = tight.query("d", "variance", epsilon=1.0)
        assert refused.status == "refused"
        assert tight.registry.get("d").budget.spent == 0.0

    def test_exhaustion_then_smaller_query_can_still_fit(self, data):
        service = make_service(data, budget=1.0)
        assert service.query("d", "mean", epsilon=0.5).ok
        assert service.query("d", "iqr", epsilon=1.0).status == "refused"
        assert service.query("d", "iqr", epsilon=0.25).ok

    def test_analyst_sub_budget(self, data):
        service = make_service(data, budget=10.0, analyst_budgets={"alice": 0.5})
        answer = service.submit(
            QueryRequest("d", Query("mean", 0.4), analyst="alice")
        )
        assert answer.ok
        refused = service.submit(
            QueryRequest("d", Query("iqr", 0.4), analyst="alice")
        )
        assert refused.status == "refused"
        # bob is bounded only by the roomy total.
        assert service.submit(QueryRequest("d", Query("iqr", 0.4), analyst="bob")).ok


class TestAnswerCache:
    def test_repeat_query_zero_spend_same_value(self, data):
        service = make_service(data)
        first = service.query("d", "mean", epsilon=0.5)
        budget_after_first = service.registry.get("d").budget.spent
        second = service.query("d", "mean", epsilon=0.5)
        assert second.cached
        assert second.value == first.value
        assert second.epsilon_charged == 0.0
        assert service.registry.get("d").budget.spent == budget_after_first
        assert service.cache_stats.hits == 1

    def test_different_params_are_not_cache_hits(self, data):
        service = make_service(data)
        service.query("d", "mean", epsilon=0.5)
        other = service.query("d", "mean", epsilon=0.6)
        assert not other.cached

    def test_cached_answers_survive_budget_exhaustion(self, data):
        """The cache keeps serving after the budget is gone — the DP win."""
        service = make_service(data, budget=1.0)
        first = service.query("d", "mean", epsilon=1.0)
        assert first.ok
        assert service.query("d", "iqr", epsilon=0.5).status == "refused"
        again = service.query("d", "mean", epsilon=1.0)
        assert again.cached
        assert again.value == first.value

    def test_disabled_cache_recomputes_and_respends(self, data):
        service = make_service(data, cache=AnswerCache(maxsize=0), seed=4)
        first = service.query("d", "mean", epsilon=0.5)
        second = service.query("d", "mean", epsilon=0.5)
        assert not second.cached
        # Same deterministic seed -> same value, but the budget was charged twice.
        assert second.value == first.value
        assert service.registry.get("d").budget.spent == pytest.approx(
            2 * first.epsilon_charged
        )

    def test_failed_answers_are_not_cached(self, data, monkeypatch):
        from repro.service import executor as executor_module
        from repro.exceptions import MechanismError

        service = make_service(data)
        calls = {"n": 0}
        original = executor_module._QueryTrial.__call__

        def flaky(self, index, generator):
            calls["n"] += 1
            if calls["n"] == 1:
                return ("failed", None, 0.25, "ptr rejected")
            return original(self, index, generator)

        monkeypatch.setattr(executor_module._QueryTrial, "__call__", flaky)
        failed = service.query("d", "mean", epsilon=0.5)
        assert failed.status == "failed"
        assert failed.error == "mechanism_error"
        # The partial spend was committed...
        assert service.registry.get("d").budget.spent == pytest.approx(0.25)
        # ...but the failure is not served from cache: a retry recomputes.
        retry = service.query("d", "mean", epsilon=0.5)
        assert retry.ok
        assert not retry.cached


class TestWorkerParity:
    REQUESTS = [
        QueryRequest("d", Query("mean", 0.3)),
        QueryRequest("d", Query("variance", 0.4)),
        QueryRequest("d", Query("iqr", 0.3)),
        QueryRequest("d", Query("quantile", 0.2, levels=(0.5, 0.95))),
        QueryRequest("d", Query("mean", 0.7)),
        QueryRequest("d", Query("quantile", 0.1, levels=(0.25,))),
    ]

    def test_serial_vs_pool_bit_for_bit(self, data):
        serial = make_service(data, seed=77).submit_many(self.REQUESTS)
        with EnginePool(ENGINE_WORKERS) as pool:
            service = make_service(data, seed=77, pool=pool, share=True)
            pooled = service.submit_many(self.REQUESTS)
            service.registry.close()
        for serial_answer, pooled_answer in zip(serial, pooled):
            assert serial_answer.value == pooled_answer.value
            assert serial_answer.epsilon_charged == pooled_answer.epsilon_charged

    def test_submission_order_does_not_change_answers(self, data):
        forward = make_service(data, seed=77).submit_many(self.REQUESTS)
        backward = make_service(data, seed=77).submit_many(self.REQUESTS[::-1])
        by_key_forward = {a.key: a.value for a in forward}
        by_key_backward = {a.key: a.value for a in backward}
        assert by_key_forward == by_key_backward

    def test_single_submits_match_batch(self, data):
        batch = make_service(data, seed=77).submit_many(self.REQUESTS)
        single_service = make_service(data, seed=77)
        singles = [single_service.submit(request) for request in self.REQUESTS]
        assert [a.value for a in batch] == [a.value for a in singles]


class TestBatchSemantics:
    def test_intra_batch_duplicates_computed_once(self, data):
        service = make_service(data)
        answers = service.submit_many(
            [
                QueryRequest("d", Query("mean", 0.5)),
                QueryRequest("d", Query("mean", 0.5)),
                QueryRequest("d", Query("iqr", 0.5)),
            ]
        )
        assert answers[0].ok and not answers[0].coalesced
        assert answers[1].coalesced
        assert answers[1].value == answers[0].value
        assert answers[1].epsilon_charged == 0.0
        budget = service.registry.get("d").budget
        assert budget.spent == pytest.approx(
            answers[0].epsilon_charged + answers[2].epsilon_charged
        )

    def test_batch_mixes_outcomes_in_submission_order(self, data):
        service = make_service(data, budget=1.0)
        answers = service.submit_many(
            [
                QueryRequest("d", Query("mean", 0.8)),
                QueryRequest("nope", Query("mean", 0.5)),
                QueryRequest("d", Query("iqr", 0.8)),  # over budget by now
            ]
        )
        assert [a.status for a in answers] == ["ok", "invalid", "refused"]


class TestCoalescing:
    def test_concurrent_identical_queries_spend_once(self, data):
        service = make_service(data, seed=5)
        results = []
        threads = 6
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            results.append(service.query("d", "mean", epsilon=0.5))

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(results) == threads
        values = {answer.value for answer in results}
        assert len(values) == 1
        charged = [answer for answer in results if answer.epsilon_charged > 0]
        assert len(charged) == 1
        budget = service.registry.get("d").budget
        assert budget.spent == pytest.approx(charged[0].epsilon_charged)
        assert all(a.cached or a.coalesced or a is charged[0] for a in results)

    def test_concurrent_distinct_queries_all_answered(self, data):
        service = make_service(data, seed=5, budget=50.0)
        epsilons = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        results = {}
        barrier = threading.Barrier(len(epsilons))

        def worker(epsilon):
            barrier.wait()
            results[epsilon] = service.query("d", "mean", epsilon=epsilon)

        pool = [threading.Thread(target=worker, args=(e,)) for e in epsilons]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert all(results[e].ok for e in epsilons)
        total = sum(results[e].epsilon_charged for e in epsilons)
        assert service.registry.get("d").budget.spent == pytest.approx(total)


#: How long a parked lookup waits for its rival before giving up.  The fixed
#: decision holds ``_coalesce_lock`` while parked, so the rival cannot finish
#: and the park always times out there; the bound keeps that to 0.5 s.
PARK_S = 0.5


class _HookedCache(AnswerCache):
    """An :class:`AnswerCache` that calls ``hook`` right after the first
    lookup (``get`` or ``peek``) made from the thread named ``thread``."""

    def __init__(self, thread, hook):
        super().__init__()
        self._thread = thread
        self._hook = hook

    def _after_lookup(self):
        if threading.current_thread().name == self._thread and self._hook:
            hook, self._hook = self._hook, None
            hook()

    def get(self, key):
        found = super().get(key)
        self._after_lookup()
        return found

    def peek(self, key):
        found = super().peek(key)
        self._after_lookup()
        return found


def _run_named(**bodies):
    """Run each body in a thread of that name; return results or exceptions.

    Daemon threads, so a request that hangs fails the test instead of
    blocking the interpreter's exit.
    """
    results = {}

    def run(name, body):
        try:
            results[name] = body()
        except Exception as exc:  # surfaced to the test through ``results``
            results[name] = exc

    threads = [
        threading.Thread(target=run, args=(name, body), name=name, daemon=True)
        for name, body in bodies.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads), "a request hung"
    return results


class TestAtomicAdmission:
    """Cache lookup, coalescing and claim are one decision under one lock.

    Each case parks one thread right after its cache lookup (through an
    injected cache) while a rival runs the identical query.  Were the
    lookup outside the lock, the rival could finish, cache its answer and
    release its key inside that window, and the parked thread would then
    be charged again for the same release (or, via ``peek``, refused for an
    answer that is cached and free).
    """

    REQUEST = QueryRequest("d", Query("mean", 0.5))

    @staticmethod
    def _service(data, tmp_path, cache, *, budget=20.0):
        service = QueryService(
            seed=5, cache=cache, audit=AuditLog(tmp_path / "audit.jsonl")
        )
        service.register("d", data, budget)
        return service

    @staticmethod
    def _parking(missed, rival_done):
        def park():
            missed.set()
            rival_done.wait(PARK_S)

        return park

    def _check(self, service, data, answers, *, lookups):
        """One release, shared by every answer, accounted exactly once."""
        reference = QueryService(seed=5)
        reference.register("d", data, 20.0)
        expected = reference.submit(self.REQUEST).value
        assert all(answer.ok for answer in answers), answers
        assert {answer.value for answer in answers} == {expected}
        charged = [answer for answer in answers if answer.epsilon_charged > 0]
        assert len(charged) == 1
        assert all(
            answer.cached or answer.coalesced
            for answer in answers
            if answer is not charged[0]
        )
        budget = service.registry.get("d").budget
        assert budget.spent == charged[0].epsilon_charged
        assert budget.reserved == 0.0
        stats = service.cache_stats
        assert stats.hits + stats.misses == lookups
        events = [
            json.loads(line)["event"]
            for line in service.audit.path.read_text().splitlines()
        ]
        assert events.count("commit") == 1
        report = replay_spend(service.audit.path)
        assert report["owners"]["dataset:d"]["spent"] == budget.spent
        with service._coalesce_lock:
            assert not service._inflight

    def test_submit_racing_submit_charges_once(self, data, tmp_path):
        missed, rival_done = threading.Event(), threading.Event()
        cache = _HookedCache("parked", self._parking(missed, rival_done))
        service = self._service(data, tmp_path, cache)

        def rival():
            missed.wait(PARK_S)
            try:
                return service.submit(self.REQUEST)
            finally:
                rival_done.set()

        results = _run_named(
            parked=lambda: service.submit(self.REQUEST), rival=rival
        )
        self._check(
            service, data, [results["parked"], results["rival"]], lookups=2
        )

    def test_peek_never_refuses_a_cached_answer(self, data, tmp_path):
        missed, rival_done = threading.Event(), threading.Event()
        cache = _HookedCache("parked", self._parking(missed, rival_done))
        # Room for one release of the query (0.48 spent), not for two.
        service = self._service(data, tmp_path, cache, budget=0.6)

        def rival():
            missed.wait(PARK_S)
            try:
                return service.submit(self.REQUEST)
            finally:
                rival_done.set()

        results = _run_named(
            parked=lambda: service.peek(self.REQUEST), rival=rival
        )
        peeked = results["parked"]
        assert peeked is None or peeked.cached, peeked
        # The async front door dispatches a None peek to submit.
        answer = peeked if peeked is not None else service.submit(self.REQUEST)
        self._check(service, data, [answer, results["rival"]], lookups=2)

    def test_owner_that_raises_wakes_its_waiter(self, data, tmp_path, monkeypatch):
        import repro.service.executor as executor_module

        claimed, looked_up = threading.Event(), threading.Event()
        cache = _HookedCache("waiter", looked_up.set)
        service = self._service(data, tmp_path, cache)
        real_run_grid = executor_module.run_grid
        failures = []

        def run_grid_failing_once(*args, **kwargs):
            if not failures:
                failures.append(True)
                claimed.set()
                looked_up.wait(PARK_S)  # let the waiter find this flight
                raise RuntimeError("engine lost")
            return real_run_grid(*args, **kwargs)

        monkeypatch.setattr(executor_module, "run_grid", run_grid_failing_once)

        def waiter():
            claimed.wait(PARK_S)
            return service.submit(self.REQUEST)

        results = _run_named(
            owner=lambda: service.submit(self.REQUEST), waiter=waiter
        )
        assert isinstance(results["owner"], RuntimeError)
        # The waiter re-decided and ran the release itself.  One lookup per
        # request, the raising owner's included: the re-decision is not a
        # second lookup.
        self._check(service, data, [results["waiter"]], lookups=2)

    def test_batch_with_duplicate_racing_single_submit(self, data, tmp_path):
        missed, rival_done = threading.Event(), threading.Event()
        cache = _HookedCache("parked", self._parking(missed, rival_done))
        service = self._service(data, tmp_path, cache)

        def rival():
            missed.wait(PARK_S)
            try:
                return service.submit(self.REQUEST)
            finally:
                rival_done.set()

        results = _run_named(
            parked=lambda: service.submit_many([self.REQUEST, self.REQUEST]),
            rival=rival,
        )
        batch = results["parked"]
        assert batch[1].coalesced  # the intra-batch duplicate never reserves
        self._check(service, data, [*batch, results["rival"]], lookups=3)


    def test_failed_reserve_record_releases_the_claim(
        self, data, tmp_path, monkeypatch
    ):
        """An audit write that fails after the reservation must not leave
        the key claimed (later identical queries would wait forever) nor
        the budget held."""
        service = self._service(data, tmp_path, AnswerCache())
        real_record = service.audit.record

        def record_failing_reserve(event, **fields):
            if event == "reserve":
                raise OSError("disk full")
            return real_record(event, **fields)

        monkeypatch.setattr(service.audit, "record", record_failing_reserve)
        with pytest.raises(OSError):
            service.submit(self.REQUEST)
        budget = service.registry.get("d").budget
        assert budget.reserved == 0.0
        with service._coalesce_lock:
            assert not service._inflight
        monkeypatch.setattr(service.audit, "record", real_record)
        results = _run_named(again=lambda: service.submit(self.REQUEST))
        assert results["again"].ok
        assert budget.spent == results["again"].epsilon_charged

    def test_every_entry_point_at_once_under_fast_switching(self, data, tmp_path):
        """Eight threads ask for one key through peek-then-submit, submit and
        a batch with a duplicate, with the interpreter switching threads
        every microsecond: one charge and exact counters, every round."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                directory = tmp_path / str(round_)
                directory.mkdir()
                service = self._service(data, directory, AnswerCache())
                barrier = threading.Barrier(8)

                def peek_then_submit():
                    barrier.wait(timeout=10)
                    peeked = service.peek(self.REQUEST)
                    return [peeked or service.submit(self.REQUEST)]

                def submit():
                    barrier.wait(timeout=10)
                    return [service.submit(self.REQUEST)]

                def batch():
                    barrier.wait(timeout=10)
                    return service.submit_many([self.REQUEST, self.REQUEST])

                bodies = {f"peek{i}": peek_then_submit for i in range(3)}
                bodies.update({f"submit{i}": submit for i in range(3)})
                bodies.update(batch0=batch, batch1=batch)
                results = _run_named(**bodies)
                assert all(isinstance(r, list) for r in results.values()), results
                answers = [answer for name in bodies for answer in results[name]]
                self._check(service, data, answers, lookups=len(answers))
        finally:
            sys.setswitchinterval(interval)


class TestReviewRegressions:
    """Regressions for the PR's code-review findings."""

    def test_variance_on_tiny_dataset_is_invalid_not_exception(self):
        """estimate_variance needs n >= 16; the planner must refuse first."""
        service = QueryService(seed=1)
        service.register("tiny", np.arange(10.0) + 1.0, 5.0)
        answer = service.query("tiny", "variance", epsilon=0.5)
        assert answer.status == "invalid"
        assert answer.error == "insufficient_data"
        assert service.registry.get("tiny").budget.spent == 0.0
        # mean still works at n=10 (its own minimum is 8).
        assert service.query("tiny", "mean", epsilon=0.5).ok

    def test_runtime_library_error_becomes_failed_answer_not_batch_abort(
        self, data, monkeypatch
    ):
        """A ReproError escaping an estimator mid-release must not abort the
        sibling queries of the batch."""
        import dataclasses

        from repro.estimators import get_estimator
        from repro.estimators import registry as estimator_registry
        from repro.exceptions import InsufficientDataError

        def sabotaged(data, generator, ledger, *, epsilon, beta, **params):
            raise InsufficientDataError("simulated runtime failure")

        spec = dataclasses.replace(get_estimator("variance"), runner=sabotaged)
        monkeypatch.setitem(estimator_registry._REGISTRY, "variance", spec)
        service = make_service(data)
        answers = service.submit_many(
            [
                QueryRequest("d", Query("mean", 0.3)),
                QueryRequest("d", Query("variance", 0.3)),
                QueryRequest("d", Query("iqr", 0.3)),
            ]
        )
        assert [a.status for a in answers] == ["ok", "failed", "ok"]
        budget = service.registry.get("d").budget
        assert budget.reserved == 0.0  # the failed query's reservation released

    def test_batch_and_single_coalesce_across_threads(self, data):
        """submit_many and submit must share one in-flight computation."""
        service = make_service(data, seed=6)
        results = {}
        threads = 4
        barrier = threading.Barrier(threads)

        def batch_worker(worker_id):
            barrier.wait()
            results[worker_id] = service.submit_many(
                [QueryRequest("d", Query("mean", 0.5))]
            )[0]

        def single_worker(worker_id):
            barrier.wait()
            results[worker_id] = service.query("d", "mean", epsilon=0.5)

        pool = [
            threading.Thread(target=batch_worker if w % 2 else single_worker, args=(w,))
            for w in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        values = {answer.value for answer in results.values()}
        assert len(values) == 1
        charged = [a for a in results.values() if a.epsilon_charged > 0]
        assert len(charged) == 1
        assert service.registry.get("d").budget.spent == pytest.approx(
            charged[0].epsilon_charged
        )

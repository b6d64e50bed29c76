"""Tests for the trial runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import run_statistical_trials, run_trials
from repro.distributions import Gaussian
from repro.exceptions import DomainError, MechanismError


class TestRunTrials:
    def test_exact_estimator_has_zero_error(self, rng):
        result = run_trials(
            estimator=lambda data, gen: float(np.mean(data)),
            data_generator=lambda gen: np.full(10, 3.0),
            truth=3.0,
            trials=5,
            rng=rng,
        )
        assert result.summary.max == 0.0
        assert result.mean_estimate == pytest.approx(3.0)

    def test_trial_count_respected(self, rng):
        result = run_trials(
            estimator=lambda data, gen: float(gen.normal()),
            data_generator=lambda gen: np.zeros(1),
            truth=0.0,
            trials=17,
            rng=rng,
        )
        assert result.estimates.size == 17
        assert result.summary.trials == 17

    def test_zero_trials_rejected(self, rng):
        with pytest.raises(DomainError):
            run_trials(lambda d, g: 0.0, lambda g: np.zeros(1), 0.0, 0, rng)

    def test_failures_propagate_by_default(self, rng):
        def failing(data, gen):
            raise MechanismError("boom")

        with pytest.raises(MechanismError):
            run_trials(failing, lambda g: np.zeros(1), 0.0, 3, rng)

    def test_failures_counted_when_allowed(self, rng):
        calls = {"count": 0}

        def sometimes_failing(data, gen):
            calls["count"] += 1
            if calls["count"] % 2 == 0:
                raise MechanismError("boom")
            return 1.0

        result = run_trials(
            sometimes_failing, lambda g: np.zeros(1), 1.0, 6, rng, allow_failures=True
        )
        assert result.failures == 3
        assert result.estimates.size == 3

    def test_all_failures_raise_even_when_allowed(self, rng):
        def failing(data, gen):
            raise MechanismError("boom")

        with pytest.raises(MechanismError):
            run_trials(failing, lambda g: np.zeros(1), 0.0, 3, rng, allow_failures=True)


class TestEngineIntegration:
    """run_trials riding on repro.engine: determinism and failure isolation."""

    @staticmethod
    def _dp_estimator(data, gen):
        return float(np.mean(data) + gen.laplace(0.0, 0.1))

    def test_worker_count_does_not_change_estimates(self):
        dist = Gaussian(2.0, 1.0)
        serial = run_statistical_trials(
            self._dp_estimator, dist, "mean", 500, 12, 123, workers=1
        )
        parallel = run_statistical_trials(
            self._dp_estimator, dist, "mean", 500, 12, 123, workers=4
        )
        np.testing.assert_array_equal(serial.estimates, parallel.estimates)

    def test_trial_k_invariant_to_earlier_failure(self):
        """Regression for the spawn_rngs promise: a failed trial k-1 must not
        shift the randomness (and hence the estimate) of trial k."""
        state = {"fail_first": False}

        def estimator(data, gen):
            if state["fail_first"]:
                state["fail_first"] = False
                raise MechanismError("boom")
            return float(gen.normal())

        clean = run_trials(
            estimator, lambda g: np.zeros(1), 0.0, 5, 99, allow_failures=True
        )
        state["fail_first"] = True
        with_failure = run_trials(
            estimator, lambda g: np.zeros(1), 0.0, 5, 99, allow_failures=True
        )
        assert with_failure.failures == 1
        assert with_failure.failure_records[0].index == 0
        np.testing.assert_array_equal(with_failure.estimates, clean.estimates[1:])

    def test_failure_records_are_structured(self):
        def failing_on_first_two(data, gen):
            raise MechanismError("ptr failed")

        calls = {"count": 0}

        def estimator(data, gen):
            calls["count"] += 1
            if calls["count"] <= 2:
                return failing_on_first_two(data, gen)
            return 1.0

        result = run_trials(
            estimator, lambda g: np.zeros(1), 1.0, 5, 7, allow_failures=True
        )
        assert result.failures == 2
        assert [record.index for record in result.failure_records] == [0, 1]
        assert result.failure_records[0].error == "MechanismError"
        assert result.failure_records[0].message == "ptr failed"

    def test_data_generator_failures_propagate_even_when_allowed(self):
        """allow_failures guards the estimator only: a MechanismError from the
        data generator must propagate for any worker count."""

        def failing_generator(gen):
            raise MechanismError("data source failed")

        for kwargs in ({"workers": 1}, {"workers": 2}):
            with pytest.raises(MechanismError, match="data source failed"):
                run_trials(
                    lambda d, g: 0.0,
                    failing_generator,
                    0.0,
                    3,
                    0,
                    allow_failures=True,
                    **kwargs,
                )


class TestRunStatisticalTrials:
    def test_sample_mean_recovers_distribution_mean(self, rng):
        dist = Gaussian(4.0, 1.0)
        result = run_statistical_trials(
            estimator=lambda data, gen: float(np.mean(data)),
            distribution=dist,
            parameter="mean",
            n=4000,
            trials=6,
            rng=rng,
        )
        assert result.truth == pytest.approx(4.0)
        assert result.summary.q95 < 0.2

    def test_variance_parameter(self, rng):
        dist = Gaussian(0.0, 2.0)
        result = run_statistical_trials(
            estimator=lambda data, gen: float(np.var(data)),
            distribution=dist,
            parameter="variance",
            n=4000,
            trials=6,
            rng=rng,
        )
        assert result.truth == pytest.approx(4.0)
        assert result.summary.q95 < 1.0

    def test_iqr_parameter(self, rng):
        dist = Gaussian(0.0, 1.0)
        result = run_statistical_trials(
            estimator=lambda data, gen: float(
                np.quantile(data, 0.75) - np.quantile(data, 0.25)
            ),
            distribution=dist,
            parameter="iqr",
            n=4000,
            trials=6,
            rng=rng,
        )
        assert result.truth == pytest.approx(dist.iqr, rel=1e-6)

    def test_unknown_parameter_rejected(self, rng):
        with pytest.raises(DomainError):
            run_statistical_trials(
                lambda d, g: 0.0, Gaussian(), "median", 100, 2, rng
            )

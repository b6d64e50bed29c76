"""Trial runner: repeat a randomized estimator and summarise its error.

Three entry points are provided:

* :func:`run_trials` — fully generic: the caller supplies a data generator and
  an estimator callable; used by the empirical-setting benchmarks where the
  dataset is fixed or adversarial.
* :func:`run_statistical_trials` — the common statistical-setting loop: draw a
  fresh i.i.d. sample from a :class:`~repro.distributions.Distribution` each
  trial, run the estimator, and compare against the distribution's true
  parameter.
* :func:`run_statistical_grid` — a whole sweep of statistical cells
  (:class:`StatisticalCell`: estimator × distribution × parameter × n) fanned
  out through :func:`repro.engine.run_grid`, so the benchmark drivers
  parallelise across the *grid* dimension as well as across trials, and many
  cells share one persistent :class:`~repro.engine.EnginePool`.

All are thin layers over :mod:`repro.engine`: each trial gets its own child
generator derived from the base seed, so estimates are bit-for-bit identical
for ``workers=1`` and ``workers=N``, independent of how cells are scheduled,
and a failed trial never shifts the randomness of later trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import RngLike
from repro.analysis.metrics import ErrorSummary, summarize_errors
from repro.distributions.base import Distribution
from repro.engine import GridCell, TrialFailure, run_batch, run_grid
from repro.exceptions import DomainError, MechanismError

__all__ = [
    "TrialResult",
    "run_trials",
    "run_statistical_trials",
    "StatisticalCell",
    "run_statistical_grid",
]

#: Signature of an estimator under test: (data, rng) -> point estimate.
#: Any kind in the estimator-spec registry drops into this signature via
#: ``repro.estimators.get_estimator(kind).estimator_fn(epsilon, **params)``,
#: so trial runs and statistical grids sweep registered kinds (including the
#: adapted ``baseline.*`` estimators) without bespoke closures.
EstimatorFn = Callable[[np.ndarray, np.random.Generator], float]
#: Signature of a data generator: (rng) -> dataset.
DataFn = Callable[[np.random.Generator], np.ndarray]


class _DataGenerationError(Exception):
    """Internal wrapper: a MechanismError raised by the *data generator*.

    Trial-failure capture applies only to the estimator; this wrapper is not
    in the engine's ``failure_types``, so it propagates out of the batch and
    :func:`run_trials` re-raises the original exception.
    """

    def __init__(self, original: MechanismError):
        super().__init__(original)
        self.original = original


@dataclass(frozen=True)
class TrialResult:
    """Per-trial estimates and their error summary.

    ``failures`` keeps the historical count; ``failure_records`` carries the
    structured per-trial records (index, exception type, message) captured by
    the engine when ``allow_failures=True``.
    """

    estimates: np.ndarray
    errors: np.ndarray
    truth: float
    summary: ErrorSummary
    failures: int = 0
    failure_records: Tuple[TrialFailure, ...] = ()

    @property
    def mean_estimate(self) -> float:
        """Average of the per-trial estimates."""
        return float(np.mean(self.estimates)) if self.estimates.size else float("nan")


def _make_trial_fn(estimator: EstimatorFn, data_generator: DataFn) -> Callable:
    """The engine trial body shared by the batch and grid paths."""

    def trial(index: int, generator: np.random.Generator) -> float:
        try:
            data = data_generator(generator)
        except MechanismError as exc:
            # Only the *estimator* call is a trial failure; a MechanismError
            # from the data generator must propagate even under
            # allow_failures, so smuggle it past the engine's catch.
            raise _DataGenerationError(exc) from exc
        return float(estimator(data, generator))

    return trial


def _finalise(
    estimates: Sequence[float],
    failure_records: Sequence[TrialFailure],
    truth: float,
    trials: int,
) -> TrialResult:
    if not estimates:
        raise MechanismError(f"all {trials} trials failed")
    estimates_arr = np.asarray(estimates, dtype=float)
    errors = np.abs(estimates_arr - truth)
    return TrialResult(
        estimates=estimates_arr,
        errors=errors,
        truth=float(truth),
        summary=summarize_errors(errors),
        failures=len(failure_records),
        failure_records=tuple(failure_records),
    )


def run_trials(
    estimator: EstimatorFn,
    data_generator: DataFn,
    truth: float,
    trials: int,
    rng: RngLike = None,
    *,
    allow_failures: bool = False,
    workers: int = 1,
    pool=None,
) -> TrialResult:
    """Run ``trials`` independent (data, estimate) repetitions.

    Parameters
    ----------
    estimator:
        Callable mapping ``(data, rng)`` to a point estimate.
    data_generator:
        Callable mapping ``rng`` to a dataset; called once per trial.
    truth:
        Ground-truth value the estimates are compared against.
    trials:
        Number of repetitions.
    allow_failures:
        When ``True``, :class:`MechanismError` raised by the estimator (e.g. a
        failed propose-test-release test) is captured as a structured
        :class:`~repro.engine.TrialFailure` instead of propagated, and the
        failed trial contributes no estimate.
    workers:
        Process count handed to :func:`repro.engine.run_batch`; estimates are
        identical for any value given the same seed.
    pool:
        Optional open :class:`~repro.engine.EnginePool`; lets many trial runs
        share one set of forked workers.
    """
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    try:
        batch = run_batch(
            _make_trial_fn(estimator, data_generator),
            trials,
            rng,
            workers=workers,
            allow_failures=allow_failures,
            pool=pool,
        )
    except _DataGenerationError as wrapper:
        raise wrapper.original
    return _finalise(list(batch.results), list(batch.failures), truth, trials)


def _statistical_truth(distribution: Distribution, parameter: str) -> float:
    truth_lookup = {
        "mean": lambda: distribution.mean,
        "variance": lambda: distribution.variance,
        "iqr": lambda: distribution.iqr,
    }
    if parameter not in truth_lookup:
        raise DomainError(
            f"parameter must be one of {sorted(truth_lookup)}, got {parameter!r}"
        )
    return float(truth_lookup[parameter]())


def run_statistical_trials(
    estimator: EstimatorFn,
    distribution: Distribution,
    parameter: str,
    n: int,
    trials: int,
    rng: RngLike = None,
    *,
    allow_failures: bool = False,
    workers: int = 1,
    pool=None,
) -> TrialResult:
    """Statistical-setting trials: fresh i.i.d. samples from ``distribution``.

    Parameters
    ----------
    estimator:
        Callable mapping ``(data, rng)`` to a point estimate.
    distribution:
        Source distribution; also supplies the ground truth.
    parameter:
        ``"mean"``, ``"variance"`` or ``"iqr"`` — which true parameter to
        compare against.
    n:
        Sample size per trial.
    trials:
        Number of repetitions.
    workers, pool:
        Forwarded to :func:`run_trials` / the engine.
    """
    truth = _statistical_truth(distribution, parameter)

    def generate(generator: np.random.Generator) -> np.ndarray:
        return distribution.sample(n, generator)

    return run_trials(
        estimator,
        generate,
        truth,
        trials,
        rng,
        allow_failures=allow_failures,
        workers=workers,
        pool=pool,
    )


@dataclass(frozen=True)
class StatisticalCell:
    """One cell of a statistical benchmark sweep.

    The grid analogue of one :func:`run_statistical_trials` call: ``key``
    labels the cell for result lookup, ``rng`` is the cell's own base seed
    (give each cell a distinct seed), and the remaining fields mirror the
    trial-runner arguments.
    """

    estimator: EstimatorFn
    distribution: Distribution
    parameter: str
    n: int
    trials: int
    rng: RngLike = None
    key: object = None
    allow_failures: bool = False


def run_statistical_grid(
    cells: Sequence[StatisticalCell],
    *,
    workers: Optional[int] = 1,
    pool=None,
) -> List[TrialResult]:
    """Run a whole sweep of statistical cells through :func:`repro.engine.run_grid`.

    Every cell's result is bit-for-bit identical to calling
    :func:`run_statistical_trials` on that cell alone with the same seed —
    the grid only changes *where* the trials execute (one shared pool,
    spans of all cells interleaved), never what they compute.

    Returns one :class:`TrialResult` per cell, in submission order.
    """
    grid_cells = []
    truths = []
    for cell in cells:
        if cell.trials < 1:
            raise DomainError(
                f"cell {cell.key!r}: trials must be at least 1, got {cell.trials}"
            )
        truths.append(_statistical_truth(cell.distribution, cell.parameter))

        def generate(generator, distribution=cell.distribution, n=cell.n):
            return distribution.sample(n, generator)

        grid_cells.append(
            GridCell(
                trial_fn=_make_trial_fn(cell.estimator, generate),
                trials=cell.trials,
                rng=cell.rng,
                key=cell.key,
                allow_failures=cell.allow_failures,
            )
        )

    try:
        grid = run_grid(grid_cells, workers=workers, pool=pool)
    except _DataGenerationError as wrapper:
        raise wrapper.original

    results: List[TrialResult] = []
    for cell, truth, batch in zip(cells, truths, grid.batches):
        assert batch is not None  # allow_cell_failures is never set here
        results.append(
            _finalise(list(batch.results), list(batch.failures), truth, cell.trials)
        )
    return results

"""``InfiniteDomainQuantile`` — Algorithm 6, Theorems 3.5 and 3.9.

A privatized quantile over an unbounded domain is obtained by first finding a
private range (Algorithm 4), clipping the data into it, and invoking the
finite-domain inverse-sensitivity quantile (Algorithm 2) over the integers in
that range.  The rank error is ``O(log(gamma(D) / b) / eps)``, which matches
the ``Omega(log N / eps)`` lower bound from the interior-point problem in the
finite-domain case, but adapts to the actual width of the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro._rng import RngLike, resolve_rng
from repro.accounting import PrivacyLedger, validate_beta, validate_epsilon
from repro.dataview import DatasetView
from repro.domain import Grid
from repro.empirical.range_finder import RangeResult, estimate_range
from repro.exceptions import DomainError, InsufficientDataError
from repro.mechanisms.exponential import finite_domain_quantile

__all__ = ["EmpiricalQuantileResult", "estimate_empirical_quantile"]


@dataclass(frozen=True)
class EmpiricalQuantileResult:
    """Private quantile estimate plus analysis-only diagnostics.

    Attributes
    ----------
    value:
        The ε-DP estimate of the ``tau``-th smallest value (real units).
    tau:
        The requested rank.
    range_used:
        The privatized range the data was clipped into.
    rank_error:
        *Non-private diagnostic*: the rank distance between the estimate and
        the requested order statistic (how many data points lie strictly
        between them), used by tests and benchmarks.
    true_value:
        *Non-private diagnostic*: the exact ``tau``-th smallest value.
    """

    value: float
    tau: int
    range_used: RangeResult
    rank_error: int
    true_value: float


def _rank_distance(sorted_data: np.ndarray, tau: int, estimate: float) -> int:
    """Number of data points strictly between the tau-th order statistic and the estimate."""
    true_value = sorted_data[tau - 1]
    low, high = min(true_value, estimate), max(true_value, estimate)
    strictly_between = int(np.searchsorted(sorted_data, high, side="left")) - int(
        np.searchsorted(sorted_data, low, side="right")
    )
    return max(0, strictly_between)


def estimate_empirical_quantile(
    values: Sequence[float],
    tau: int,
    epsilon: float,
    beta: float = 1.0 / 3.0,
    rng: RngLike = None,
    *,
    bucket_size: float = 1.0,
    ledger: Optional[PrivacyLedger] = None,
    label: str = "empirical_quantile",
) -> EmpiricalQuantileResult:
    """Privately estimate the ``tau``-th smallest value of ``D`` over an unbounded domain.

    Guarantee (Theorem 3.5 / 3.9): with probability at least ``1 - beta`` the
    returned value lies between the order statistics of ranks
    ``tau ± O(log(gamma(D) / (b beta)) / eps)`` (shifted by at most ``b`` due
    to discretization), provided ``n > (c1/eps) log(rad(D) / (b beta))``.

    Parameters
    ----------
    values:
        The dataset ``D``.
    tau:
        Requested rank, ``1 <= tau <= n``.
    epsilon, beta:
        Privacy budget and failure probability.
    bucket_size:
        Discretization bucket ``b``; 1.0 for integer data.
    """
    epsilon = validate_epsilon(epsilon)
    beta = validate_beta(beta)
    view = values if isinstance(values, DatasetView) else None
    data = view if view is not None else np.asarray(values, dtype=float)
    if data.size == 0:
        raise InsufficientDataError("cannot estimate a quantile of an empty dataset")
    n = int(data.size)
    if not 1 <= tau <= n:
        raise DomainError(f"tau must lie in [1, {n}], got {tau}")
    generator = resolve_rng(rng)

    grid = Grid(bucket_size)

    # Sketch path: a DatasetView's ``sorted`` sketch replaces every full sort
    # below.  Grid snapping and clipping are monotone, so the release reads
    # the sketch through them lazily (only its rank window is mapped) and
    # every mechanism input is bit-for-bit the plain path's.

    # 4/5 of the budget finds the range, 1/5 pays for the quantile release.
    range_result = estimate_range(
        data,
        4.0 * epsilon / 5.0,
        beta / 2.0,
        generator,
        bucket_size=bucket_size,
        ledger=ledger,
        label=f"{label}.range",
    )

    low, high = range_result.grid_low, range_result.grid_high
    if view is not None:
        clipped = grid.sorted_map(view.sorted_values).then(
            lambda g: np.clip(g, low, high)
        )
    else:
        clipped = np.clip(grid.to_grid(data).astype(float), low, high)
    grid_estimate = finite_domain_quantile(
        clipped,
        tau,
        low,
        high,
        epsilon / 5.0,
        beta / 2.0,
        generator,
        ledger=ledger,
        label=f"{label}.quantile",
    )
    estimate = grid.from_grid_scalar(grid_estimate)

    sorted_data = view.sorted_values if view is not None else np.sort(data)
    return EmpiricalQuantileResult(
        value=float(estimate),
        tau=tau,
        range_used=range_result,
        rank_error=_rank_distance(sorted_data, tau, estimate),
        true_value=float(sorted_data[tau - 1]),
    )

"""``InfiniteDomainRadius`` — Algorithm 3, Theorems 3.1 and 3.6.

The radius ``rad(D) = max_i |X_i|`` is the smallest ``x`` with
``Count(D, x) = |D ∩ [-x, x]| = n``.  Feeding the counting queries
``Count(D, 0), Count(D, 2^0), Count(D, 2^1), ...`` to the Sparse Vector
Technique with the *lowered* threshold ``T = n - (6/eps) log(2/beta)`` makes
SVT stop (Lemma 2.6) at a scale that is at most ``2 * rad(D)`` while still
covering all but ``O(log log(rad(D)) / eps)`` elements of ``D``.

Real-valued data is handled by discretizing with a bucket size ``b``
(Theorem 3.6), which relaxes the guarantees to ``rad <= 2 rad(D) + 3b``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro._rng import RngLike, resolve_rng
from repro.accounting import PrivacyLedger, validate_beta, validate_epsilon
from repro.dataview import DatasetView
from repro.domain import Grid
from repro.exceptions import InsufficientDataError
from repro.mechanisms.sparse_vector import DEFAULT_MAX_QUERIES, sparse_vector

__all__ = ["RadiusResult", "estimate_radius"]


@dataclass(frozen=True)
class RadiusResult:
    """Private radius estimate together with analysis-only diagnostics.

    Attributes
    ----------
    radius:
        The privatized radius in the original (real) units.  The interval
        ``[-radius, radius]`` is safe to release: it is a post-processing of
        the SVT output.
    grid_radius:
        The radius expressed in grid units (an integer power of two or zero).
    svt_index:
        The 1-based index at which SVT stopped.
    bucket_size:
        Bucket size used for discretization (1.0 for integer data).
    covered_count, uncovered_count:
        *Non-private diagnostics*: how many data points fall inside/outside
        ``[-radius, radius]``.  They are computed from the raw data for
        utility measurement and must not be released alongside the estimate.
    """

    radius: float
    grid_radius: int
    svt_index: int
    bucket_size: float
    covered_count: int
    uncovered_count: int


def _doubling_count_queries(count_within: Callable[[float], int]) -> Iterator:
    """Yield the counting queries Count(D, 0), Count(D, 2^0), Count(D, 2^1), ...

    ``count_within(limit)`` is the number of discretized points with
    ``|x| <= limit``.
    """

    def make_query(limit: float):
        def query() -> float:
            return float(count_within(limit))

        return query

    yield make_query(0.0)
    scale = 1.0
    while True:
        yield make_query(scale)
        scale *= 2.0


def _count_le(sorted_values: np.ndarray, limit: float) -> int:
    return int(np.searchsorted(sorted_values, limit, side="right"))


def estimate_radius(
    values: Sequence[float],
    epsilon: float,
    beta: float,
    rng: RngLike = None,
    *,
    bucket_size: float = 1.0,
    ledger: Optional[PrivacyLedger] = None,
    max_queries: int = DEFAULT_MAX_QUERIES,
    label: str = "radius",
    count_within: Optional[Callable[[float], int]] = None,
) -> RadiusResult:
    """Privately estimate ``rad(D)`` over the (discretized) unbounded domain.

    Parameters
    ----------
    values:
        The dataset ``D`` (integers, or reals when ``bucket_size`` is set).
        A :class:`~repro.dataview.DatasetView` reads its ``sorted_abs``
        sketch through the grid snap instead of converting and sorting per
        call: ``|rint(x/b)| == rint(|x|/b)`` and rounding is monotone, so
        each count is an O(log n) search of the sketch.
    epsilon, beta:
        Privacy budget and failure probability for this call.
    bucket_size:
        Discretization bucket ``b``; use 1.0 for integer data.
    ledger:
        Optional ledger that records a spend of ``epsilon``.
    count_within:
        ``count_within(limit)`` is the number of points whose discretized
        absolute value (as a float) is ``<= limit``.  Callers that can count
        without the per-call grid conversion and sort (e.g. off a dataset
        sketch) pass it here; ``values`` then only gives ``n``.  Results are
        bit-for-bit identical.

    Returns
    -------
    RadiusResult
        ``radius <= 2 * rad(D) + 3 * bucket_size`` and all but
        ``O(log(log(rad(D) / b) / beta) / eps)`` points of ``D`` lie inside
        ``[-radius, radius]``, each with probability at least ``1 - beta``.
    """
    epsilon = validate_epsilon(epsilon)
    beta = validate_beta(beta)
    n = int(np.size(values))
    if n == 0:
        raise InsufficientDataError("cannot estimate the radius of an empty dataset")
    generator = resolve_rng(rng)

    grid = Grid(bucket_size)
    if count_within is None:
        if isinstance(values, DatasetView):
            count_within = grid.sorted_map(values.sorted_abs).count_le
        else:
            grid_values = grid.to_grid(np.asarray(values, dtype=float))
            abs_sorted = np.sort(np.abs(grid_values).astype(float))
            count_within = functools.partial(_count_le, abs_sorted)

    threshold = n - (6.0 / epsilon) * math.log(2.0 / beta)
    result = sparse_vector(
        threshold,
        epsilon,
        _doubling_count_queries(count_within),
        generator,
        max_queries=max_queries,
        ledger=ledger,
        label=label,
    )

    if result.index == 1:
        grid_radius = 0
    else:
        grid_radius = 2 ** (result.index - 2)
    radius = grid.from_grid_scalar(grid_radius)

    # Grid values stay within 2**62, so capping the limit changes no count
    # and keeps a (vanishingly unlikely) huge radius from overflowing float.
    covered = int(count_within(float(min(grid_radius, 2**63))))
    return RadiusResult(
        radius=radius,
        grid_radius=int(grid_radius),
        svt_index=result.index,
        bucket_size=grid.bucket_size,
        covered_count=covered,
        uncovered_count=n - covered,
    )

"""``InfiniteDomainRange`` — Algorithm 4, Theorems 3.2 and 3.7.

A good privatized range must be close to the empirical range ``R(D)`` in both
*scale* and *location*.  Algorithm 4 proceeds in three steps:

1. privately estimate the radius ``rad(D)`` so the bulk of the data is known
   to lie inside ``[-rad, rad]`` (Algorithm 3);
2. locate the data by privately finding a median over the now-finite domain
   ``Z ∩ [-rad, rad]`` with the inverse sensitivity mechanism (Algorithm 2);
3. re-centre the data at that median and privately estimate the radius again,
   which now measures the *width* ``gamma(D)`` rather than the magnitude of
   the values.

The returned interval has width at most ``4 * gamma(D) + 6b`` and misses only
``O(log log(gamma(D) / b) / eps)`` points of ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro._rng import RngLike, resolve_rng
from repro.accounting import PrivacyLedger, validate_beta, validate_epsilon
from repro.dataview import DatasetView
from repro.domain import Grid
from repro.empirical.radius import RadiusResult, estimate_radius
from repro.exceptions import InsufficientDataError
from repro.mechanisms.exponential import finite_domain_quantile
from repro.mechanisms.sparse_vector import DEFAULT_MAX_QUERIES

__all__ = ["RangeResult", "estimate_range"]


@dataclass(frozen=True)
class RangeResult:
    """Private range estimate ``[low, high]`` plus analysis-only diagnostics.

    Attributes
    ----------
    low, high:
        Endpoints of the privatized range in real units.
    center:
        The privatized median used to re-centre the data (real units).
    width:
        ``high - low``.
    grid_low, grid_high, grid_center:
        The same quantities in grid units.
    bucket_size:
        Discretization bucket used.
    inside_count, outside_count:
        *Non-private diagnostics*: how many points of ``D`` fall inside /
        outside ``[low, high]``; used only to measure utility.
    radius_first, radius_recentred:
        The two intermediate radius estimates (useful for debugging and the
        E2 benchmark).
    """

    low: float
    high: float
    center: float
    width: float
    grid_low: int
    grid_high: int
    grid_center: int
    bucket_size: float
    inside_count: int
    outside_count: int
    radius_first: RadiusResult
    radius_recentred: RadiusResult


def estimate_range(
    values: Sequence[float],
    epsilon: float,
    beta: float,
    rng: RngLike = None,
    *,
    bucket_size: float = 1.0,
    ledger: Optional[PrivacyLedger] = None,
    max_queries: int = DEFAULT_MAX_QUERIES,
    label: str = "range",
) -> RangeResult:
    """Privately estimate a range covering (almost all of) ``D``.

    The total privacy cost is ``epsilon`` (basic composition over the
    ``eps/8 + eps/8 + 3 eps/4`` split of Algorithm 4).

    Parameters
    ----------
    values:
        The dataset ``D``.
    epsilon, beta:
        Privacy budget and failure probability.
    bucket_size:
        Discretization bucket ``b``; 1.0 for integer data.
    """
    epsilon = validate_epsilon(epsilon)
    beta = validate_beta(beta)
    view = values if isinstance(values, DatasetView) else None
    data = view if view is not None else np.asarray(values, dtype=float)
    n = int(data.size)
    if n == 0:
        raise InsufficientDataError("cannot estimate the range of an empty dataset")
    generator = resolve_rng(rng)

    grid = Grid(bucket_size)

    # Sketch path: a DatasetView's ``sorted`` and ``sorted_abs`` sketches are
    # read through the monotone maps the plain path applies to the whole
    # array (grid snap, clip, shift): counts are O(log n) searches and the
    # median only maps its rank window, with bit-for-bit identical inputs.
    if view is not None:
        grid_sorted = grid.sorted_map(view.sorted_values)
        count_first = grid.sorted_map(view.sorted_abs).count_le
    else:
        grid_values = grid.to_grid(data).astype(float)
        count_first = None

    # Step 1: private radius of the raw (discretized) data, eps/8 of the budget.
    radius_first = estimate_radius(
        data if view is not None else grid_values,
        epsilon / 8.0,
        beta / 3.0,
        generator,
        bucket_size=1.0,
        ledger=ledger,
        max_queries=max_queries,
        label=f"{label}.radius_first",
        count_within=count_first,
    )
    rad1 = radius_first.grid_radius

    # Step 2: private median over the finite domain Z ∩ [-rad1, rad1], eps/8.
    if view is not None:
        clipped = grid_sorted.then(lambda g: np.clip(g, -rad1, rad1))
    else:
        clipped = np.clip(grid_values, -rad1, rad1)
    median_rank = max(1, n // 2)
    grid_center = finite_domain_quantile(
        clipped,
        median_rank,
        -rad1,
        rad1,
        epsilon / 8.0,
        beta / 3.0,
        generator,
        ledger=ledger,
        label=f"{label}.median",
    )

    # Step 3: re-centre and estimate the radius again, 3 eps/4 of the budget.
    if view is not None:
        recentred = grid_sorted.then(lambda g: g - grid_center, shift=grid_center)
        # The plain path's radius discretizes the recentred data; its checks
        # hold on the two (extreme) ends.
        Grid.unit().to_grid(recentred.ends())

        def count_recentred(limit: float) -> int:
            # |fl(g - c)| <= s exactly when -s <= fl(g - c) <= s, and
            # fl(g - c) is non-decreasing in g.
            return recentred.count_le(limit) - recentred.count_lt(-limit)

    else:
        recentred = grid_values - grid_center
        count_recentred = None
    radius_recentred = estimate_radius(
        data if view is not None else recentred,
        3.0 * epsilon / 4.0,
        beta / 3.0,
        generator,
        bucket_size=1.0,
        ledger=ledger,
        max_queries=max_queries,
        label=f"{label}.radius_recentred",
        count_within=count_recentred,
    )
    rad2 = radius_recentred.grid_radius

    grid_low = int(grid_center - rad2)
    grid_high = int(grid_center + rad2)
    low = grid.from_grid_scalar(grid_low)
    high = grid.from_grid_scalar(grid_high)

    if view is not None:
        sorted_data = view.sorted_values
        inside = int(
            np.searchsorted(sorted_data, high, side="right")
            - np.searchsorted(sorted_data, low, side="left")
        )
    else:
        inside = int(np.count_nonzero((data >= low) & (data <= high)))
    return RangeResult(
        low=low,
        high=high,
        center=grid.from_grid_scalar(grid_center),
        width=high - low,
        grid_low=grid_low,
        grid_high=grid_high,
        grid_center=int(grid_center),
        bucket_size=grid.bucket_size,
        inside_count=inside,
        outside_count=n - inside,
        radius_first=radius_first,
        radius_recentred=radius_recentred,
    )

"""Inverse-sensitivity quantile release (Section 2.5, Algorithm 2).

The inverse sensitivity mechanism (INV) instantiates the exponential mechanism
with the *path length* score ``len(Q, D, y)`` — the minimum number of records
of ``D`` that must change for ``y`` to become the exact query answer.  For a
quantile query over a finite ordered domain, the path length of a candidate
``y`` is the number of data points separating ``y`` from the target order
statistic, so the score is piecewise constant between consecutive data values.
This lets us sample from the exponential mechanism in ``O(n log n)`` time by
working over at most ``2n + 1`` integer intervals instead of enumerating the
(potentially astronomically large) output domain.

:func:`finite_domain_quantile` implements Algorithm 2 including the rank
clamping near 1 and ``n`` and enjoys the rank-error guarantee of Lemma 2.8:
with probability ``1 - beta`` the returned value lies between the order
statistics of ranks ``tau ± (4/eps) log(|X| / beta)``.

Rank window
-----------
Given sorted data as a :class:`~repro.dataview.SortedMap` (a dataset sketch
read through its grid, clip and recentre maps), :func:`inverse_sensitivity_quantile`
builds intervals only for the data ranks within
``reach = 2 (ln|X| + 750) / eps`` of ``tau``, widened to whole runs of equal
values, and maps only that slice of the sketch.  The draw is bit-for-bit the
one over all intervals, for ``1 <= tau <= n``:

* An interval outside the window has score ``s >= reach`` (its data points
  lie ``>= reach`` ranks from ``tau``) and size ``<= |X|``, so its
  log-weight ``ln(size) - eps s / 2`` is at most ``-750``.  The maximum
  log-weight is at least 0 (the ``tau``-th order statistic's singleton has
  score 0 and size 1) and is attained inside the window, so every outside
  interval has ``exp(log_weight - max)`` underflow to exactly ``0.0``.
* The cumulative sum is sequential: the leading zeros sum to ``0.0``, the
  window's partial sums are then today's exactly, and the trailing zeros
  leave the total unchanged.  A draw ``u * total >= 0`` never selects a
  leading interval (its cumulative ``0.0`` is not above the draw), so the
  chosen index only shifts by the window start.
* A draw that rounds up to the total selects the domain's last interval,
  which is rebuilt from the largest value and ``domain_high`` when the
  window stops short of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro._rng import RngLike, resolve_rng
from repro.accounting import PrivacyLedger, validate_beta, validate_epsilon
from repro.dataview import SortedMap
from repro.exceptions import DomainError, InsufficientDataError

#: ``exp(x)`` is exactly 0.0 in binary64 for every ``x < -745.14``; the rank
#: window keeps every interval whose log-weight can lie above ``-750``.
_UNDERFLOW_MARGIN = 750.0

__all__ = [
    "QuantileInterval",
    "build_quantile_intervals",
    "exponential_mechanism_over_intervals",
    "inverse_sensitivity_quantile",
    "finite_domain_quantile",
    "rank_clamp_width",
    "clamped_rank",
]


@dataclass(frozen=True)
class QuantileInterval:
    """A maximal run of integer candidates sharing one path-length score.

    Attributes
    ----------
    low, high:
        Inclusive integer endpoints of the run (``low <= high``).
    score:
        The path length ``len(Q, D, y)`` shared by every ``y`` in the run.
    """

    low: int
    high: int
    score: int

    @property
    def size(self) -> int:
        """Number of integer candidates contained in the run."""
        return self.high - self.low + 1


def _path_length(count_below: int, count_above: int, n: int, tau: int) -> int:
    """Minimum number of record changes for a candidate to become the tau-quantile.

    ``count_below`` is the number of data points strictly below the candidate
    and ``count_above`` the number strictly above it.  To make the candidate
    the ``tau``-th smallest value we may need to push down points from below
    (when more than ``tau - 1`` lie below) or pull up points from above (when
    fewer than ``tau`` lie at or below it).
    """
    deficit_low = count_below - (tau - 1)
    deficit_high = tau - (n - count_above)
    return max(0, deficit_low, deficit_high)


def _check_domain(first: int, last: int, n: int, domain_low: int, domain_high: int) -> None:
    """Reject an empty domain, or data (extremes ``first``/``last``) outside it."""
    if domain_high < domain_low:
        raise DomainError(
            f"empty candidate domain: [{domain_low}, {domain_high}]"
        )
    if n and (first < domain_low or last > domain_high):
        raise DomainError(
            f"data values [{first}, {last}] lie outside the "
            f"candidate domain [{domain_low}, {domain_high}]"
        )


def _interval_arrays(
    values: np.ndarray,
    tau: int,
    domain_low: int,
    domain_high: int,
    below: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(lows, highs, scores)`` runs tiling ``[domain_low, domain_high]``.

    ``values`` is ascending int64 data.  ``below`` counts further data points
    lying strictly below the domain: the ranks before ``values`` when it is
    a rank window of the dataset.  (Points above it never enter a score.)
    """
    m = int(values.size)
    if not m:
        lows = np.asarray([domain_low], dtype=np.int64)
        highs = np.asarray([domain_high], dtype=np.int64)
        rank = np.asarray([below], dtype=np.int64)
        return lows, highs, np.maximum(0, np.maximum(rank - (tau - 1), tau - rank))
    # Runs of equal values: the i-th distinct value unique[i] occupies ranks
    # [starts[i], ends[i]) of the whole dataset.
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    unique = values[starts]
    starts = starts + below
    ends = np.append(starts[1:], below + m)
    # Candidate segments: for each distinct value, the gap of integers
    # strictly before it and the singleton {v}; finally the gap after the last
    # value.  The gap before unique[i] starts one past unique[i-1] (or at
    # domain_low for the first), so lows/highs interleave as
    # [gap_0, {v_0}, gap_1, {v_1}, ...] with empty gaps dropped.  A gap
    # before unique[i] has starts[i] points below and n - starts[i] above it;
    # the singleton has starts[i] below and n - ends[i] above.
    k = int(unique.size)
    lows = np.empty(2 * k + 1, dtype=np.int64)
    highs = np.empty(2 * k + 1, dtype=np.int64)
    lows[0] = domain_low
    lows[2::2] = unique + 1
    lows[1::2] = unique
    highs[0:-1:2] = unique - 1
    highs[-1] = domain_high
    highs[1::2] = unique
    below_counts = np.empty(2 * k + 1, dtype=np.int64)
    below_counts[0:-1:2] = starts
    below_counts[1::2] = starts
    below_counts[-1] = below + m
    at_or_below = np.empty(2 * k + 1, dtype=np.int64)
    at_or_below[0:-1:2] = starts
    at_or_below[1::2] = ends
    at_or_below[-1] = below + m
    # Score max(0, below - (tau - 1), tau - (n - above)), where n - above
    # counts the points at or below the segment.
    scores = np.maximum(
        0, np.maximum(below_counts - (tau - 1), tau - at_or_below)
    )
    kept = np.flatnonzero(lows <= highs)
    return lows[kept], highs[kept], scores[kept]


def _quantile_interval_arrays(
    sorted_values: Sequence[int],
    tau: int,
    domain_low: int,
    domain_high: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised core of :func:`build_quantile_intervals`.

    Returns the ``(lows, highs, scores)`` arrays of the constant-score runs
    tiling ``[domain_low, domain_high]`` without materialising per-interval
    Python objects.  This is the reference the rank-window path is checked
    against: every interval, from a defensive sort of the input.
    """
    values = np.sort(np.asarray(sorted_values, dtype=np.int64))
    n = int(values.size)
    _check_domain(
        int(values[0]) if n else 0, int(values[-1]) if n else 0,
        n, domain_low, domain_high,
    )
    return _interval_arrays(values, tau, domain_low, domain_high)


def _rank_window(values: SortedMap, tau: int, epsilon: float, domain_size: int) -> Tuple[int, int]:
    """``[start, stop)``: the ranks whose intervals can carry nonzero weight.

    Every interval outside it scores at least ``reach`` (see the module
    docstring), and both ends fall on boundaries between runs of equal
    values.  Outside ``1 <= tau <= n`` no interval need score 0, so the
    window is all of the data.
    """
    n = len(values)
    if not 1 <= tau <= n:
        return 0, n
    reach = 2.0 * (math.log(domain_size) + _UNDERFLOW_MARGIN) / epsilon
    first = math.floor(tau - reach) - 1
    last = math.ceil(tau - 1 + reach) + 1
    start = 0 if first <= 0 else values.count_lt(values.at(first))
    stop = n if last >= n else values.count_le(values.at(last - 1))
    return start, stop


def _windowed_quantile(
    values: SortedMap,
    tau: int,
    domain_low: int,
    domain_high: int,
    epsilon: float,
    generator: np.random.Generator,
) -> int:
    """INV over the rank window of the sorted int64 images of ``values``."""
    n = len(values)
    low_end, high_end = (int(v) for v in values.ends()) if n else (0, 0)
    _check_domain(low_end, high_end, n, domain_low, domain_high)
    start, stop = _rank_window(values, tau, epsilon, domain_high - domain_low + 1)
    window = np.asarray(values.take(start, stop), dtype=np.int64)
    lows, highs, scores = _interval_arrays(
        window,
        tau,
        domain_low if start == 0 else int(values.at(start - 1)) + 1,
        domain_high if stop == n else int(window[-1]),
        below=start,
    )
    last = None
    if stop < n:
        # The domain's last interval, which a draw rounded up to the total
        # picks: the gap after the largest value, or that value alone.
        last = (high_end + 1, domain_high) if high_end < domain_high else (high_end, high_end)
    return _sample_over_interval_arrays(lows, highs, scores, epsilon, generator, last)


def build_quantile_intervals(
    sorted_values: Sequence[int],
    tau: int,
    domain_low: int,
    domain_high: int,
) -> list[QuantileInterval]:
    """Partition ``[domain_low, domain_high]`` into constant-score integer runs.

    Parameters
    ----------
    sorted_values:
        Data values sorted ascending; every value must already lie inside the
        domain.
    tau:
        Target rank (1-based).
    domain_low, domain_high:
        Inclusive integer bounds of the output domain.
    """
    lows, highs, scores = _quantile_interval_arrays(
        sorted_values, tau, domain_low, domain_high
    )
    return [
        QuantileInterval(low=int(lo), high=int(hi), score=int(sc))
        for lo, hi, sc in zip(lows.tolist(), highs.tolist(), scores.tolist())
    ]


def _sample_over_interval_arrays(
    lows: np.ndarray,
    highs: np.ndarray,
    scores: np.ndarray,
    epsilon: float,
    generator: np.random.Generator,
    last: Optional[Tuple[int, int]] = None,
) -> int:
    """Two-stage exponential-mechanism sampling over ``(lows, highs, scores)`` runs.

    The interval is picked by cumulative-sum inversion
    (``searchsorted(cumsum(weights), u * total)``) rather than
    ``Generator.choice(p=...)``: ``choice`` renormalises and *validates* the
    probability vector, raising ``ValueError: probabilities do not sum to 1``
    whenever float rounding across many intervals leaves the sum off by more
    than its tolerance.  Inversion needs no normalisation at all, so it cannot
    flake at large interval counts.  A draw that rounds up to the total
    takes the last interval: the arrays' own, or ``last`` ``(low, high)``
    when the arrays are a window that stops short of the domain's end.
    """
    sizes = highs - lows + 1
    if np.any(sizes < 1):
        bad = int(np.argmax(sizes < 1))
        raise DomainError(
            f"malformed interval [{int(lows[bad])}, {int(highs[bad])}]: high < low"
        )
    log_weights = np.log(sizes.astype(float)) - 0.5 * epsilon * scores
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    cumulative = np.cumsum(weights)
    total = float(cumulative[-1])
    draw = generator.random() * total
    index = int(np.searchsorted(cumulative, draw, side="right"))
    if index < lows.size:
        low, high = int(lows[index]), int(highs[index])
    elif last is None:
        low, high = int(lows[-1]), int(highs[-1])
    else:
        low, high = last
    size = high - low + 1
    if size == 1:
        return low
    # The run length fits comfortably in a Python int; sample uniformly in it.
    offset = int(generator.integers(0, size))
    return low + offset


def exponential_mechanism_over_intervals(
    intervals: Sequence[QuantileInterval],
    epsilon: float,
    rng: RngLike = None,
) -> int:
    """Sample an integer with probability proportional to ``size * exp(-eps * score / 2)``.

    This is the exponential mechanism with utility ``-score`` (sensitivity 1)
    over the union of the intervals, using the standard two-stage sampling:
    first pick an interval by its total weight (via cumulative-sum inversion,
    which is immune to the float-rounding validation failures of
    ``Generator.choice``), then a uniform integer inside it.  Weights are
    handled in log-space so that very long intervals and very large scores
    cannot overflow or underflow.
    """
    if not intervals:
        raise DomainError("cannot run the exponential mechanism over zero intervals")
    epsilon = validate_epsilon(epsilon)
    generator = resolve_rng(rng)

    lows = np.asarray([iv.low for iv in intervals], dtype=np.int64)
    highs = np.asarray([iv.high for iv in intervals], dtype=np.int64)
    scores = np.asarray([iv.score for iv in intervals], dtype=np.int64)
    return _sample_over_interval_arrays(lows, highs, scores, epsilon, generator)


def rank_clamp_width(domain_size: int, epsilon: float, beta: float) -> float:
    """The rank clamp ``(2 / eps) * log(|X| / beta)`` used by Algorithm 2."""
    epsilon = validate_epsilon(epsilon)
    beta = validate_beta(beta)
    if domain_size < 1:
        raise DomainError(f"domain size must be at least 1, got {domain_size}")
    # Compute log(|X| / beta) as log|X| - log(beta) so that astronomically
    # large integer domains (the radius can be a huge power of two) never
    # overflow an intermediate float division.
    return (2.0 / epsilon) * (math.log(domain_size) - math.log(beta))


def clamped_rank(tau: int, n: int, clamp: float) -> int:
    """Clamp the requested rank ``tau`` into ``[clamp, n - clamp]`` symmetrically.

    Algorithm 2 keeps the target rank at least ``clamp`` away from both
    extremes because INV can behave arbitrarily badly there.  When the clamp
    window ``[clamp, n - clamp]`` is empty (``2 * clamp > n``, i.e. the
    dataset is too small relative to the domain for *any* rank to be safe),
    every requested rank collapses to the median rank — the unique
    branch-order-independent choice equidistant from both unsafe extremes.
    (At exactly ``2 * clamp == n`` the window is the single point ``n / 2``,
    which the ordinary clamp branches already produce.)  The historical
    implementation applied the low clamp first and never re-checked the high
    one, so in the empty-window case the result silently depended on branch
    order (all ranks landed at ``n``).
    """
    if 2.0 * clamp > n:
        target = (n + 1) / 2.0
    elif tau <= clamp:
        target = clamp
    elif tau >= n - clamp:
        target = n - clamp
    else:
        target = float(tau)
    return int(min(max(round(target), 1), n))


def inverse_sensitivity_quantile(
    sorted_values: Union[Sequence[int], SortedMap],
    tau: int,
    domain_low: int,
    domain_high: int,
    epsilon: float,
    rng: RngLike = None,
) -> int:
    """Run INV for the ``tau``-th order statistic over an integer domain.

    This is the raw mechanism without Algorithm 2's rank clamping; callers
    that need the Lemma 2.8 guarantee should use :func:`finite_domain_quantile`.
    A :class:`~repro.dataview.SortedMap` of ascending ints (a dataset sketch
    read through its grid maps) builds only the rank window's intervals;
    any other input is sorted and gets every interval.  Both draw the same
    value from the same generator state.
    """
    epsilon = validate_epsilon(epsilon)
    generator = resolve_rng(rng)
    if isinstance(sorted_values, SortedMap):
        return _windowed_quantile(
            sorted_values, tau, int(domain_low), int(domain_high), epsilon, generator
        )
    lows, highs, scores = _quantile_interval_arrays(
        sorted_values, tau, domain_low, domain_high
    )
    return _sample_over_interval_arrays(lows, highs, scores, epsilon, generator)


def _round_to_int(values: np.ndarray) -> np.ndarray:
    return np.rint(values).astype(np.int64)


def finite_domain_quantile(
    values: Sequence[float],
    tau: int,
    domain_low: int,
    domain_high: int,
    epsilon: float,
    beta: float,
    rng: RngLike = None,
    *,
    ledger: Optional[PrivacyLedger] = None,
    label: str = "finite_domain_quantile",
) -> int:
    """Algorithm 2: privately estimate the ``tau``-th smallest value of ``values``.

    Parameters
    ----------
    values:
        Integer data, in any order; or a :class:`~repro.dataview.SortedMap`
        of ascending values, read lazily without a sort or an O(n) copy
        (bit-for-bit identical results).  Every value must lie inside
        ``[domain_low, domain_high]``.
    tau:
        Requested rank, ``1 <= tau <= n``.  Ranks too close to the extremes
        are clamped to ``(2/eps) log(|X|/beta)`` away from them exactly as in
        Algorithm 2, because INV can behave arbitrarily badly there.
    domain_low, domain_high:
        Inclusive bounds of the finite ordered domain ``X``.
    epsilon, beta:
        Privacy budget and failure probability.

    Returns
    -------
    int
        A domain element within rank error ``(4/eps) log(|X|/beta)`` of the
        true ``tau``-th smallest value, with probability at least ``1 - beta``.
    """
    epsilon = validate_epsilon(epsilon)
    beta = validate_beta(beta)
    if isinstance(values, SortedMap):
        data: Union[np.ndarray, SortedMap] = values
        n = len(values)
    else:
        data = np.sort(np.asarray(values, dtype=float))
        n = data.size
    if n == 0:
        raise InsufficientDataError("cannot estimate a quantile of an empty dataset")
    if not 1 <= tau <= n:
        raise DomainError(f"tau must lie in [1, {n}], got {tau}")

    domain_size = int(domain_high) - int(domain_low) + 1
    clamp = rank_clamp_width(domain_size, epsilon, beta)
    tau_prime = clamped_rank(tau, int(n), clamp)

    if ledger is not None:
        ledger.charge(label, epsilon)

    # rint is monotone, so sorted data stays sorted after snapping.
    sorted_ints = data.then(_round_to_int) if isinstance(data, SortedMap) else _round_to_int(data)
    return inverse_sensitivity_quantile(
        sorted_ints,
        tau_prime,
        int(domain_low),
        int(domain_high),
        epsilon,
        rng,
    )

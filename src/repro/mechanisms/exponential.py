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
Every release, from a :class:`~repro.dataview.SortedMap` (a dataset sketch
read through its grid, clip and recentre maps) or from a plain array (sorted
once into one), draws through :func:`_windowed_quantile`.  It builds the slots
``gap_0, {v_0}, gap_1, ..., gap_k`` (the integers strictly between distinct
values, and each value alone) only for the data ranks within
``reach = 2 (ln|X| + margin) / eps`` of ``tau``, widened to whole runs of
equal values, and maps only that slice of the sketch.  The draw is bit-for-bit
the one over all intervals (:func:`exponential_mechanism_over_intervals` on
:func:`build_quantile_intervals`), for ``1 <= tau <= n``:

* *Weights.*  An interval outside the window has score ``s >= reach`` and
  size ``<= |X|``, so its log-weight ``ln(size) - eps s / 2`` is at most
  ``-margin``.  The ``tau``-th order statistic's singleton (score 0, size 1)
  has log-weight 0, so the maximum is at least 0 and lies inside the window:
  every window computes the same maximum, and each slot's weight
  ``exp(log_weight - max)`` has the same bits in every window containing it.
  An empty gap has size 0, log-weight ``-inf`` and weight exactly ``0.0``,
  which leaves every sequential partial sum unchanged and can never be picked
  by ``searchsorted(side="right")``; so empty gaps need not be dropped.
* *The exact window* (margin 750).  ``exp`` underflows to exactly ``0.0``
  below ``-745.14``, so every excluded weight is ``0.0``.  The leading zeros
  of the sequential cumulative sum add up to ``0.0``, the window's partial
  sums are the reference's bit for bit, and the trailing zeros leave the
  total unchanged.  A draw ``u * total >= 0`` never selects a leading
  interval, and one that rounds up to the total selects the domain's last
  interval, rebuilt from the largest value and ``domain_high``.
* *The certified window* (margin 60, about 5-10x fewer ranks at service
  epsilons).  Its excluded weights are no longer zero but at most
  ``e^-60 (1 + 2^-52) < e^-59`` each, over at most ``2n + 1`` slots.  Let
  ``c~`` be its cumulative sums, ``T~ = c~[-1] >= 1`` (the maximum's slot
  weighs 1) and ``c~[-1] := 0`` before the first slot.  The reference's
  partial sum at the same slot, and its total ``T``, differ from ``c~[k]``
  and ``T~`` by the excluded mass plus the rounding of two recursive sums of
  at most ``2n + 1`` nonnegative terms, each within ``(2n)(2^-53) / (1 - (2n)
  2^-53)`` of the total (Higham, *Accuracy and Stability of Numerical
  Algorithms*, ch. 4):
  ``E = (2n + 1) e^-59 + 4 (2n + 1) 2^-53 T~``.  The two products ``u T``
  and ``u T~`` then differ by at most ``E_D = 2^-50 T~ + 2E`` (``|T - T~| <=
  E`` plus one rounding of each product; ``2^-50`` also absorbs the
  rounding of the checks themselves).  With
  ``k = searchsorted(c~, u T~, side="right")``, if ``u T~`` lies farther
  than ``E + E_D`` from both ``c~[k - 1]`` and ``c~[k]`` then the reference
  draw lies strictly between the reference's sums at those two slots, so it
  picks the same interval.  Otherwise, and whenever the draw reaches ``T~``,
  the same ``u`` is resolved over the exact window.  At 100k records a
  random draw lands that close to a boundary with probability about
  ``1e-10``.
* *Generator.*  Both branches take one ``random()`` before the window is
  certified, then ``integers`` inside the chosen interval only when it holds
  more than one integer: exactly the reference's consumption.
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

#: ``exp(x)`` is exactly 0.0 in binary64 for every ``x < -745.14``; the exact
#: rank window keeps every interval whose log-weight can lie above ``-750``.
_UNDERFLOW_MARGIN = 750.0
#: The certified window keeps every interval whose log-weight can lie above
#: ``-60``; each one it leaves out weighs at most ``_EXCLUDED_WEIGHT``.
_NARROW_MARGIN = 60.0
_EXCLUDED_WEIGHT = math.exp(-59.0)

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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(lows, highs, scores)`` runs tiling ``[domain_low, domain_high]``.

    ``values`` is ascending int64 data.
    """
    m = int(values.size)
    if not m:
        lows = np.asarray([domain_low], dtype=np.int64)
        highs = np.asarray([domain_high], dtype=np.int64)
        rank = np.zeros(1, dtype=np.int64)
        return lows, highs, np.maximum(0, np.maximum(rank - (tau - 1), tau - rank))
    # Runs of equal values: the i-th distinct value unique[i] occupies ranks
    # [starts[i], ends[i]).
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    unique = values[starts]
    ends = np.append(starts[1:], m)
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
    below_counts[-1] = m
    at_or_below = np.empty(2 * k + 1, dtype=np.int64)
    at_or_below[0:-1:2] = starts
    at_or_below[1::2] = ends
    at_or_below[-1] = m
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


def _rank_window(
    values: SortedMap, tau: int, epsilon: float, domain_size: int, margin: float
) -> Tuple[int, int]:
    """``[start, stop)``: the ranks whose intervals can weigh above ``e^-margin``.

    Every interval outside it scores at least ``reach`` (see the module
    docstring), and both ends fall on boundaries between runs of equal
    values.  Outside ``1 <= tau <= n`` no interval need score 0, so the
    window is all of the data.
    """
    n = len(values)
    if not 1 <= tau <= n:
        return 0, n
    reach = 2.0 * (math.log(domain_size) + margin) / epsilon
    first = math.floor(tau - reach) - 1
    last = math.ceil(tau - 1 + reach) + 1
    start = 0 if first <= 0 else values.count_lt(values.at(first))
    stop = n if last >= n else values.count_le(values.at(last - 1))
    return start, stop


def _window_slots(
    values: SortedMap,
    tau: int,
    domain_low: int,
    domain_high: int,
    epsilon: float,
    margin: float,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """The rank window's slots: ``(cumulative, unique, low, high)``.

    Slot ``2i`` is the gap of integers before ``unique[i]``, slot ``2i + 1``
    the singleton ``{unique[i]}``, and the last slot the gap after the last
    value; ``[low, high]`` is the stretch of the domain they tile.
    ``cumulative`` holds the sequential partial sums of the slot weights
    ``exp(ln(size) - (eps / 2) score - max)``, computed straight from the run
    boundaries in the reference's expression order.
    """
    n = len(values)
    start, stop = _rank_window(
        values, tau, epsilon, domain_high - domain_low + 1, margin
    )
    window = np.asarray(values.take(start, stop), dtype=np.int64)
    low = domain_low if start == 0 else int(values.at(start - 1)) + 1
    high = domain_high if stop == n else int(window[-1])
    if window.size:
        starts = np.flatnonzero(np.concatenate(([True], window[1:] != window[:-1])))
        unique = window[starts]
        gaps = np.empty(unique.size + 1)
        gaps[0] = unique[0] - low
        gaps[1:-1] = np.diff(unique) - 1
        gaps[-1] = high - unique[-1]
    else:
        starts = unique = window
        gaps = np.asarray([float(high - low + 1)])
    # Data points below each gap (and below each singleton, whose successor
    # gap's count is the points at or below it).
    ranks = np.append(starts, window.size) + start
    half_eps = 0.5 * epsilon
    log_weights = np.empty(2 * unique.size + 1)
    with np.errstate(divide="ignore"):
        # An empty gap: ln(0) = -inf, weight exactly 0.0.
        log_weights[0::2] = np.log(gaps) - half_eps * np.maximum(
            0, np.maximum(ranks - (tau - 1), tau - ranks)
        )
    # A singleton: ln(1) = 0.
    log_weights[1::2] = 0.0 - half_eps * np.maximum(
        0, np.maximum(ranks[:-1] - (tau - 1), tau - ranks[1:])
    )
    log_weights -= log_weights.max()
    return np.cumsum(np.exp(log_weights)), unique, low, high


def _slot_interval(unique: np.ndarray, low: int, high: int, slot: int) -> Tuple[int, int]:
    """``(low, high)`` of one slot of :func:`_window_slots`."""
    i, singleton = divmod(slot, 2)
    if singleton:
        value = int(unique[i])
        return value, value
    return (
        low if i == 0 else int(unique[i - 1]) + 1,
        high if i == unique.size else int(unique[i]) - 1,
    )


def _exact_interval(
    values: SortedMap,
    tau: int,
    domain_low: int,
    domain_high: int,
    epsilon: float,
    u: float,
) -> Tuple[int, int]:
    """The reference's interval for the draw ``u``, over the exact window."""
    cumulative, unique, low, high = _window_slots(
        values, tau, domain_low, domain_high, epsilon, _UNDERFLOW_MARGIN
    )
    slot = int(np.searchsorted(cumulative, u * float(cumulative[-1]), side="right"))
    if slot < cumulative.size:
        return _slot_interval(unique, low, high, slot)
    # A draw rounded up to the total: the domain's last interval, the gap
    # after the largest value or that value alone.
    if not len(values):
        return domain_low, domain_high
    largest = int(values.ends()[1])
    return (largest + 1, domain_high) if largest < domain_high else (largest, largest)


def _windowed_quantile(
    values: SortedMap,
    tau: int,
    domain_low: int,
    domain_high: int,
    epsilon: float,
    generator: np.random.Generator,
) -> int:
    """INV over the certified rank window of the sorted int64 ``values``."""
    n = len(values)
    low_end, high_end = (int(v) for v in values.ends()) if n else (0, 0)
    _check_domain(low_end, high_end, n, domain_low, domain_high)
    cumulative, unique, low, high = _window_slots(
        values, tau, domain_low, domain_high, epsilon, _NARROW_MARGIN
    )
    u = generator.random()
    total = float(cumulative[-1])
    draw = u * total
    slot = int(np.searchsorted(cumulative, draw, side="right"))
    # E and E + E_D of the module docstring.
    error = (2 * n + 1) * (_EXCLUDED_WEIGHT + 4 * 2.0**-53 * total)
    slack = error + (2.0**-50 * total + 2 * error)
    before = float(cumulative[slot - 1]) if slot else 0.0
    if (
        slot < cumulative.size
        and draw - before > slack
        and float(cumulative[slot]) - draw > slack
    ):
        low, high = _slot_interval(unique, low, high, slot)
    else:
        low, high = _exact_interval(values, tau, domain_low, domain_high, epsilon, u)
    size = high - low + 1
    if size == 1:
        return low
    return low + int(generator.integers(0, size))


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
) -> int:
    """Two-stage exponential-mechanism sampling over ``(lows, highs, scores)`` runs.

    The interval is picked by cumulative-sum inversion
    (``searchsorted(cumsum(weights), u * total)``) rather than
    ``Generator.choice(p=...)``: ``choice`` renormalises and *validates* the
    probability vector, raising ``ValueError: probabilities do not sum to 1``
    whenever float rounding across many intervals leaves the sum off by more
    than its tolerance.  Inversion needs no normalisation at all, so it cannot
    flake at large interval counts.  A draw that rounds up to the total
    takes the last interval.
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
    else:
        low, high = int(lows[-1]), int(highs[-1])
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
    ``sorted_values`` is a :class:`~repro.dataview.SortedMap` of ascending
    ints (a dataset sketch read through its grid maps), whose rank window
    alone is read, or any other ints, which are sorted first.  Either way the
    draw is the one over every interval, from the same generator state.
    """
    epsilon = validate_epsilon(epsilon)
    generator = resolve_rng(rng)
    if not isinstance(sorted_values, SortedMap):
        sorted_values = SortedMap(np.sort(np.asarray(sorted_values, dtype=np.int64)))
    return _windowed_quantile(
        sorted_values, tau, int(domain_low), int(domain_high), epsilon, generator
    )


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
    sorted_ints = (
        data.then(_round_to_int)
        if isinstance(data, SortedMap)
        else SortedMap(_round_to_int(data))
    )
    return inverse_sensitivity_quantile(
        sorted_ints,
        tau_prime,
        int(domain_low),
        int(domain_high),
        epsilon,
        rng,
    )

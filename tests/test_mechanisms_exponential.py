"""Tests for the inverse-sensitivity quantile machinery (Section 2.5, Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accounting import PrivacyLedger
from repro.dataview import DatasetView, SortedMap
from repro.mechanisms import exponential
from repro.empirical import estimate_empirical_quantile, estimate_range
from repro.exceptions import DomainError, InsufficientDataError
from repro.mechanisms.exponential import (
    QuantileInterval,
    build_quantile_intervals,
    clamped_rank,
    exponential_mechanism_over_intervals,
    finite_domain_quantile,
    inverse_sensitivity_quantile,
    rank_clamp_width,
)


class TestBuildQuantileIntervals:
    def test_intervals_cover_domain_exactly(self):
        intervals = build_quantile_intervals([2, 5, 5, 9], tau=2, domain_low=0, domain_high=12)
        covered = []
        for iv in intervals:
            covered.extend(range(iv.low, iv.high + 1))
        assert covered == list(range(0, 13))

    def test_intervals_are_disjoint_and_ordered(self):
        intervals = build_quantile_intervals([1, 3, 7], tau=1, domain_low=0, domain_high=10)
        for prev, cur in zip(intervals, intervals[1:]):
            assert cur.low == prev.high + 1

    def test_score_zero_at_target_order_statistic(self):
        data = [10, 20, 30, 40, 50]
        intervals = build_quantile_intervals(data, tau=3, domain_low=0, domain_high=60)
        score_at = {v: iv.score for iv in intervals for v in (iv.low, iv.high) if iv.low == iv.high}
        assert score_at[30] == 0

    def test_score_grows_with_rank_distance(self):
        data = [10, 20, 30, 40, 50]
        intervals = build_quantile_intervals(data, tau=3, domain_low=0, domain_high=60)
        by_point = {iv.low: iv.score for iv in intervals if iv.low == iv.high}
        assert by_point[10] > by_point[20] > by_point[30]
        assert by_point[50] > by_point[40] > by_point[30]

    def test_empty_domain_rejected(self):
        with pytest.raises(DomainError):
            build_quantile_intervals([1], tau=1, domain_low=5, domain_high=4)

    def test_out_of_domain_data_rejected(self):
        with pytest.raises(DomainError):
            build_quantile_intervals([100], tau=1, domain_low=0, domain_high=10)

    def test_single_point_domain(self):
        intervals = build_quantile_intervals([0, 0, 0], tau=2, domain_low=0, domain_high=0)
        assert len(intervals) == 1
        assert intervals[0].size == 1
        assert intervals[0].score == 0

    def test_empty_dataset_covers_domain_with_zero_scores(self):
        intervals = build_quantile_intervals([], tau=1, domain_low=0, domain_high=5)
        assert sum(iv.size for iv in intervals) == 6

    @given(
        data=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30),
        tau_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_partition_and_scores(self, data, tau_frac):
        """The intervals always tile [-60, 60] and the true order statistic scores 0."""
        tau = max(1, min(len(data), int(round(tau_frac * len(data)))))
        intervals = build_quantile_intervals(sorted(data), tau, -60, 60)
        total = sum(iv.size for iv in intervals)
        assert total == 121
        target = sorted(data)[tau - 1]
        target_scores = [iv.score for iv in intervals if iv.low <= target <= iv.high]
        assert target_scores and min(target_scores) == 0
        assert all(iv.score >= 0 for iv in intervals)


class TestExponentialMechanism:
    def test_prefers_low_score_interval(self, rng):
        intervals = [
            QuantileInterval(low=0, high=0, score=0),
            QuantileInterval(low=1, high=1, score=50),
        ]
        draws = [exponential_mechanism_over_intervals(intervals, 2.0, rng) for _ in range(200)]
        assert np.mean([d == 0 for d in draws]) > 0.95

    def test_uniform_within_interval(self, rng):
        intervals = [QuantileInterval(low=0, high=9, score=0)]
        draws = [exponential_mechanism_over_intervals(intervals, 1.0, rng) for _ in range(2000)]
        assert set(draws) == set(range(10))

    def test_handles_huge_interval_sizes(self, rng):
        intervals = [
            QuantileInterval(low=0, high=2**40, score=5),
            QuantileInterval(low=2**40 + 1, high=2**40 + 1, score=0),
        ]
        value = exponential_mechanism_over_intervals(intervals, 1.0, rng)
        assert 0 <= value <= 2**40 + 1

    def test_handles_huge_scores_without_underflow(self, rng):
        intervals = [
            QuantileInterval(low=0, high=0, score=10_000_000),
            QuantileInterval(low=1, high=1, score=10_000_001),
        ]
        assert exponential_mechanism_over_intervals(intervals, 1.0, rng) in (0, 1)

    def test_empty_intervals_rejected(self, rng):
        with pytest.raises(DomainError):
            exponential_mechanism_over_intervals([], 1.0, rng)

    def test_malformed_interval_rejected_loudly(self, rng):
        """A high < low interval must fail fast, not poison the cumsum."""
        intervals = [
            QuantileInterval(low=5, high=3, score=0),
            QuantileInterval(low=0, high=3, score=0),
        ]
        with pytest.raises(DomainError, match="malformed interval"):
            exponential_mechanism_over_intervals(intervals, 1.0, rng)

    def test_many_intervals_never_raise_on_normalisation(self):
        """Regression: Generator.choice(p=...) raised ``probabilities do not
        sum to 1`` when float rounding across many intervals left the sum off
        by more than its tolerance; cumulative-sum inversion cannot."""
        intervals = [
            QuantileInterval(low=i, high=i, score=(i * 7919) % 97)
            for i in range(20_000)
        ]
        for seed in range(5):
            value = exponential_mechanism_over_intervals(
                intervals, 0.31, np.random.default_rng(seed)
            )
            assert 0 <= value < 20_000

    def test_inversion_sampler_matches_exponential_weights(self):
        """The cumulative-sum sampler still realises the exponential-mechanism
        distribution: mass ratio between two intervals ~ exp(eps * dscore / 2)
        scaled by interval size."""
        intervals = [
            QuantileInterval(low=0, high=3, score=0),   # weight 4
            QuantileInterval(low=4, high=4, score=2),   # weight exp(-1)
        ]
        generator = np.random.default_rng(20230401)
        draws = np.asarray(
            [
                exponential_mechanism_over_intervals(intervals, 1.0, generator)
                for _ in range(4000)
            ]
        )
        expected_share = 4.0 / (4.0 + np.exp(-1.0))
        assert np.mean(draws <= 3) == pytest.approx(expected_share, abs=0.03)


class TestRankClampWidth:
    def test_decreases_with_epsilon(self):
        assert rank_clamp_width(100, 2.0, 0.1) < rank_clamp_width(100, 0.5, 0.1)

    def test_increases_with_domain_size(self):
        assert rank_clamp_width(10**6, 1.0, 0.1) > rank_clamp_width(10, 1.0, 0.1)

    def test_handles_astronomical_domains(self):
        assert np.isfinite(rank_clamp_width(2**4000, 1.0, 0.1))

    def test_invalid_domain_rejected(self):
        with pytest.raises(DomainError):
            rank_clamp_width(0, 1.0, 0.1)


class TestClampedRank:
    def test_interior_rank_untouched(self):
        assert clamped_rank(50, 100, 10.0) == 50

    def test_low_rank_clamped_up(self):
        assert clamped_rank(1, 100, 10.0) == 10

    def test_high_rank_clamped_down(self):
        assert clamped_rank(100, 100, 10.0) == 90

    def test_empty_window_collapses_to_median(self):
        """Regression: with 2*clamp > n the old elif chain let the low clamp
        land above n - clamp, so *every* rank silently collapsed to n.  The
        empty window now collapses to the median rank instead."""
        n, clamp = 5, 10.0
        assert 2 * clamp > n
        assert clamped_rank(1, n, clamp) == 3
        assert clamped_rank(n, n, clamp) == 3

    def test_exactly_full_window_uses_ordinary_clamps(self):
        """At 2*clamp == n the window is the single safe point n/2; every
        rank must land there (not at the median of n+1)."""
        n, clamp = 10, 5.0
        for tau in (1, 5, 6, 10):
            assert clamped_rank(tau, n, clamp) == 5

    def test_empty_window_is_branch_order_independent(self):
        for n in (1, 2, 3, 4, 7, 10):
            clamp = n / 2.0 + 0.5
            ranks = {clamped_rank(tau, n, clamp) for tau in range(1, n + 1)}
            assert len(ranks) == 1, "all ranks must agree when no rank is safe"
            (rank,) = ranks
            assert rank == int(min(max(round((n + 1) / 2.0), 1), n))

    def test_result_always_in_range(self):
        for n in (1, 2, 10, 1000):
            for clamp in (0.0, 0.4, n / 3.0, n, 10.0 * n):
                for tau in (1, n // 2 or 1, n):
                    assert 1 <= clamped_rank(tau, n, clamp) <= n


class TestFiniteDomainQuantile:
    def test_median_close_to_truth(self, rng):
        data = np.arange(0, 1001)
        estimate = finite_domain_quantile(data, 500, 0, 1000, epsilon=2.0, beta=0.1, rng=rng)
        assert abs(estimate - 500) < 60

    def test_rank_error_within_lemma_bound(self, rng):
        """Lemma 2.8: rank error at most (4/eps) log(|X|/beta) w.p. 1 - beta."""
        epsilon, beta = 1.0, 0.05
        data = np.arange(0, 2001)
        bound = (4.0 / epsilon) * np.log(2001 / beta)
        failures = 0
        for seed in range(30):
            est = finite_domain_quantile(
                data, 1000, 0, 2000, epsilon, beta, np.random.default_rng(seed)
            )
            rank_error = abs(est - 1000)  # data are consecutive integers
            if rank_error > bound:
                failures += 1
        assert failures <= 3

    def test_extreme_ranks_are_clamped(self, rng):
        data = np.arange(0, 101)
        low = finite_domain_quantile(data, 1, 0, 100, 1.0, 0.2, rng)
        high = finite_domain_quantile(data, 101, 0, 100, 1.0, 0.2, rng)
        assert 0 <= low <= 100
        assert 0 <= high <= 100

    def test_empty_data_rejected(self, rng):
        with pytest.raises(InsufficientDataError):
            finite_domain_quantile([], 1, 0, 10, 1.0, 0.1, rng)

    def test_invalid_tau_rejected(self, rng):
        with pytest.raises(DomainError):
            finite_domain_quantile([1, 2, 3], 5, 0, 10, 1.0, 0.1, rng)

    def test_ledger_records_spend(self, rng):
        ledger = PrivacyLedger()
        finite_domain_quantile(np.arange(50), 25, 0, 60, 0.5, 0.1, rng, ledger=ledger)
        assert ledger.total_epsilon == pytest.approx(0.5)

    def test_output_always_in_domain(self, rng):
        data = np.array([5, 5, 5, 5])
        for _ in range(20):
            value = finite_domain_quantile(data, 2, 0, 10, 0.5, 0.3, rng)
            assert 0 <= value <= 10


class TestInverseSensitivityQuantile:
    def test_concentrates_on_true_quantile_at_high_epsilon(self, rng):
        data = [10, 20, 30, 40, 50]
        draws = [
            inverse_sensitivity_quantile(data, 3, 0, 60, epsilon=20.0, rng=rng)
            for _ in range(100)
        ]
        # With a huge epsilon nearly all mass sits on values with score 0,
        # i.e. the single point 30.
        assert np.median(draws) == pytest.approx(30, abs=5)


class _FixedDraw(np.random.Generator):
    """A generator whose ``random()`` always returns ``value``."""

    def __init__(self, value: float, seed: int = 0):
        super().__init__(np.random.PCG64(seed))
        self.value = value

    def random(self, *args, **kwargs):
        return self.value


#: The largest double below 1: ``random()``'s top output.
_TOP_DRAW = float(np.nextafter(1.0, 0.0))


@st.composite
def _window_cases(draw):
    """Sorted int data with long tie runs, a domain around it, tau and eps."""
    half_width = draw(
        st.one_of(
            st.integers(1, 16),
            st.integers(1, 2**62 - 1),
            st.just(2**62 - 1),
        )
    )
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(-half_width, half_width), st.integers(1, 400)
            ),
            min_size=1,
            max_size=12,
        )
    )
    # A stretch of evenly spaced values, so that weights decay rank by rank
    # across the window edges rather than run by run.
    start = draw(st.integers(-half_width, half_width))
    step = draw(st.integers(1, max(1, half_width // 3000)))
    stretch = np.clip(
        start + step * np.arange(draw(st.integers(0, 3000)), dtype=np.int64),
        -half_width,
        half_width,
    )
    values = np.sort(
        np.concatenate(
            [stretch]
            + [np.full(length, value, dtype=np.int64) for value, length in runs]
        )
    )
    n = int(values.size)
    epsilon = 10.0 ** draw(st.floats(-3.0, 1.0))
    mode = draw(st.sampled_from(["first", "last", "any", "clamped"]))
    if mode == "first":
        tau = 1
    elif mode == "last":
        tau = n
    else:
        tau = draw(st.integers(1, n))
        if mode == "clamped":
            clamp = rank_clamp_width(2 * half_width + 1, epsilon, 0.1)
            tau = clamped_rank(tau, n, clamp)
    return values, tau, -half_width, half_width, epsilon


class TestRankWindowEquivalence:
    """The rank-window sampler draws exactly what the all-intervals one does,
    from a sorted map or from a plain array in any order."""

    @staticmethod
    def _both(values, tau, low, high, epsilon, make_generator):
        windowed_rng, plain_rng, reference_rng = (
            make_generator(), make_generator(), make_generator()
        )
        windowed = inverse_sensitivity_quantile(
            SortedMap(values), tau, low, high, epsilon, windowed_rng
        )
        shuffled = np.random.default_rng(tau).permutation(values)
        plain = inverse_sensitivity_quantile(
            shuffled, tau, low, high, epsilon, plain_rng
        )
        reference = exponential_mechanism_over_intervals(
            build_quantile_intervals(values, tau, low, high), epsilon, reference_rng
        )
        assert windowed == plain == reference
        assert windowed_rng.bit_generator.state == reference_rng.bit_generator.state
        assert plain_rng.bit_generator.state == reference_rng.bit_generator.state
        return windowed

    @given(case=_window_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_draw_as_all_intervals(self, case, seed):
        values, tau, low, high, epsilon = case
        self._both(
            values, tau, low, high, epsilon, lambda: np.random.default_rng(seed)
        )

    @given(case=_window_cases())
    @settings(max_examples=60, deadline=None)
    def test_same_draw_at_the_top_of_the_cumulative_range(self, case):
        values, tau, low, high, epsilon = case
        for value in (_TOP_DRAW, 1.0):
            # 1.0 forces the draw onto the total itself: the clamp to the
            # domain's last interval, which the window may not contain.
            self._both(values, tau, low, high, epsilon, lambda: _FixedDraw(value))

    def test_clamp_rebuilds_the_last_interval_outside_the_window(self):
        values = np.arange(0, 5_000, dtype=np.int64)
        draw = self._both(values, 10, 0, 9_000, 5.0, lambda: _FixedDraw(1.0))
        assert 5_000 <= draw <= 9_000

    def test_empty_data_draws_over_the_whole_domain(self):
        for value in (0.0, 0.5, _TOP_DRAW, 1.0):
            draw = self._both(
                np.empty(0, dtype=np.int64), 1, -3, 9, 0.7, lambda: _FixedDraw(value)
            )
            assert -3 <= draw <= 9

    def test_out_of_domain_data_rejected_alike(self):
        with pytest.raises(DomainError) as reference:
            build_quantile_intervals([100], 1, 0, 10)
        with pytest.raises(DomainError) as windowed:
            inverse_sensitivity_quantile(SortedMap([100]), 1, 0, 10, 1.0, 0)
        assert str(windowed.value) == str(reference.value)


def _count_fallbacks(monkeypatch):
    """Count the certified window's fallbacks to the exact window."""
    calls = []
    exact = exponential._exact_interval

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(exponential, "_exact_interval", counted)
    return calls


#: n = 20k ints with ties, spread so that per-call epsilons of 0.02-0.07
#: give certified windows of 4k-15k ranks (the exact window is all of them).
_SWEEP_VALUES = np.sort(
    np.rint(np.random.default_rng(20).normal(0.0, 3000.0, 20_000)).astype(np.int64)
)
_SWEEP_DOMAIN = (-(2**20), 2**20)


class TestCertifiedWindow:
    """The narrow window's pick is certified, else resolved exactly."""

    def test_boundary_draws_fall_back_and_match(self, monkeypatch):
        values = _SWEEP_VALUES
        low, high = _SWEEP_DOMAIN
        tau, epsilon = 9_000, 0.05
        sketch = SortedMap(values)
        cumulative, unique, _, _ = exponential._window_slots(
            sketch, tau, low, high, epsilon, exponential._NARROW_MARGIN
        )
        # The window really is narrow, with room on both sides.
        assert values[0] < unique[0] and unique[-1] < values[-1]
        total = cumulative[-1]
        tau_slot = 2 * int(np.searchsorted(unique, values[tau - 1])) + 1
        edges = [0.0, cumulative[0], cumulative[-2], total]
        at_tau = [cumulative[tau_slot - 1], cumulative[tau_slot]]
        # The first draw above 0 lands, in the reference, inside the tail of
        # tiny weights left of the window.
        draws = [float(np.nextafter(0.0, 1.0))]
        for edge in edges + at_tau:
            u = float(edge / total)
            draws += [u] + ([float(np.nextafter(u, 0.0))] if u > 0 else [])
        calls = _count_fallbacks(monkeypatch)
        for u in draws:
            TestRankWindowEquivalence._both(
                values, tau, low, high, epsilon, lambda: _FixedDraw(u)
            )
        # Each draw ran three times (sorted map, plain array, reference);
        # the two INV calls fell back every time.
        assert len(calls) == 2 * len(draws)

    def test_random_draws_never_fall_back(self, monkeypatch):
        values = _SWEEP_VALUES
        low, high = _SWEEP_DOMAIN
        sketch = SortedMap(values)
        calls = _count_fallbacks(monkeypatch)
        draws = 0
        for epsilon in np.linspace(0.02, 0.07, 5):
            for tau in (2_500, 10_000, 17_500):
                lows, highs, scores = exponential._quantile_interval_arrays(
                    values, tau, low, high
                )
                for seed in range(34):
                    windowed_rng = np.random.default_rng([seed, tau])
                    reference_rng = np.random.default_rng([seed, tau])
                    windowed = inverse_sensitivity_quantile(
                        sketch, tau, low, high, epsilon, windowed_rng
                    )
                    reference = exponential._sample_over_interval_arrays(
                        lows, highs, scores, epsilon, reference_rng
                    )
                    assert windowed == reference
                    assert (
                        windowed_rng.bit_generator.state
                        == reference_rng.bit_generator.state
                    )
                    draws += 1
        assert draws >= 500
        assert calls == []


class TestSketchPathErrors:
    """A DatasetView raises exactly the plain path's errors."""

    @pytest.mark.parametrize(
        "data, bucket_size",
        [
            (np.array([1.0, 2.0, np.nan, 4.0] * 4), 1.0),
            (np.array([1.0, -np.inf, 3.0, 4.0] * 4), 1.0),
            (np.array([1.0, 2.0, 3.0, 1e20] * 4), 1.0),
            (np.array([-1e6, 2.0, 3.0, 4.0] * 4), 1e-14),
        ],
        ids=["nan", "neg-inf", "overflow", "overflow-small-bucket"],
    )
    @pytest.mark.parametrize("release", ["range", "quantile"])
    def test_same_domain_error(self, data, bucket_size, release):
        def run(values):
            if release == "range":
                return estimate_range(values, 1.0, 0.1, 0, bucket_size=bucket_size)
            return estimate_empirical_quantile(
                values, 8, 1.0, 0.1, 0, bucket_size=bucket_size
            )

        view = DatasetView(data).precompute(("sorted", "sorted_abs"))
        with pytest.raises(DomainError) as plain:
            run(data)
        with pytest.raises(DomainError) as sketched:
            run(view)
        assert str(sketched.value) == str(plain.value)

from __future__ import annotations

import bisect
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ks_oracle import brute_perm_p, exact_perm_p, mc_perm_p, oracle_d
from moodtrends.lexicon import MoodScale
from moodtrends.scoring import YearBucket
from moodtrends.stats import (FLAG_NONE, FLAG_SIGNIFICANT, build_trend,
                              classify_p, ks_two_sample, pairwise_ks,
                              polyfit2, zscore_series)


def unit_vector(depression: float) -> tuple[float, ...]:
    vigor = math.sqrt(max(0.0, 1.0 - depression * depression))
    return (0.0, depression, 0.0, vigor, 0.0, 0.0)


def bucket_of(year: int, depressions: list[float]) -> YearBucket:
    return YearBucket(vectors=[unit_vector(d) for d in depressions])


class TestKsTwoSample:
    def test_identical_samples(self):
        r = ks_two_sample([0.3, 0.7, 0.7, 0.9], [0.9, 0.7, 0.3, 0.7])
        assert r.d_statistic == 0.0
        assert r.p_value == 1.0

    def test_disjoint_supports(self):
        r = ks_two_sample([0.1, 0.2], [0.8, 0.9])
        assert r.d_statistic == 1.0

    def test_interleaved_example_vs_permutation_oracle(self):
        a = [1, 2, 3, 4, 5]
        b = [1.5, 2.5, 3.5, 4.5, 5.5]
        r = ks_two_sample(a, b)
        assert r.d_statistic == pytest.approx(0.2, abs=1e-15)
        assert r.d_statistic == pytest.approx(oracle_d(a, b), abs=0)
        p_oracle = exact_perm_p(a, b)
        assert p_oracle == 1.0
        assert abs(r.p_value - p_oracle) <= 0.01

    def test_ties_handled_exactly(self):
        a = [0.0, 0.0, 1.0]
        b = [0.0, 1.0, 1.0]
        r = ks_two_sample(a, b)
        assert r.d_statistic == pytest.approx(1 / 3, abs=1e-15)
        assert r.d_statistic == oracle_d(a, b)

    def test_symmetry_exact(self):
        rng = random.Random(11)
        for _ in range(25):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(1, 15))]
            b = [rng.gauss(0.4, 1.2) for _ in range(rng.randint(1, 15))]
            ra = ks_two_sample(a, b)
            rb = ks_two_sample(b, a)
            assert ra.d_statistic == rb.d_statistic
            assert ra.p_value == rb.p_value

    def test_p_monotone_in_d_for_fixed_sizes(self):
        # growing location shift drives d up and p down
        base = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85]
        prev_d, prev_p = -1.0, 2.0
        for shift in (0.0, 0.15, 0.3, 0.6, 1.0):
            shifted = [x + shift for x in base]
            r = ks_two_sample(base, shifted)
            if r.d_statistic > prev_d:
                assert r.p_value <= prev_p + 1e-12
                prev_d, prev_p = r.d_statistic, r.p_value

    def test_location_shift_beyond_range_gives_d_one(self):
        a = [0.2, 0.5, 0.9]
        delta = (max(a) - min(a)) + 0.01
        r = ks_two_sample(a, [x + delta for x in a])
        assert r.d_statistic == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])
        with pytest.raises(ValueError):
            ks_two_sample([1.0], [])

    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=25),
           st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), min_size=1, max_size=25))
    @settings(max_examples=200)
    def test_d_equals_bisect_loop_reference(self, a, b):
        # the per-point bisect loop D was computed with before searchsorted;
        # heavy ties, as in real mood components
        n, m = len(a), len(b)
        xs, ys = sorted(a), sorted(b)
        d_num = max(abs(bisect.bisect_right(xs, v) * m - bisect.bisect_right(ys, v) * n)
                    for v in xs + ys)
        assert ks_two_sample(a, b).d_statistic == d_num / (n * m)

    def test_d_matches_scipy_statistic(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(23)
        for _ in range(30):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(2, 40))]
            b = [rng.gauss(0.3, 1) for _ in range(rng.randint(2, 40))]
            mine = ks_two_sample(a, b).d_statistic
            ref = scipy_stats.ks_2samp(a, b).statistic
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_p_nonincreasing_over_all_achievable_d(self):
        # exhaustive over the D lattice for fixed sizes: p must never rise
        n, m = 8, 11
        base = sorted({abs(i * m - j * n) / (n * m)
                       for i in range(n + 1) for j in range(m + 1)})
        from moodtrends.stats import _kolmogorov_sf
        import math
        ne = n * m / (n + m)
        mult = math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)
        ps = [_kolmogorov_sf(mult * d) for d in base]
        # the alternating series truncates once terms drop below 1e-10, so
        # monotonicity is guaranteed only to that resolution
        assert all(p2 <= p1 + 2e-10 for p1, p2 in zip(ps, ps[1:]))

    def test_kolmogorov_series_matches_scipy_special(self):
        special = pytest.importorskip("scipy.special")
        from moodtrends.stats import _kolmogorov_sf
        for lam in (0.01, 0.1, 0.3, 0.5, 0.8287, 1.0, 1.2, 1.7, 2.5, 4.0):
            assert _kolmogorov_sf(lam) == pytest.approx(
                float(special.kolmogorov(lam)), abs=1e-9)

    def test_d_bounds_and_p_bounds(self):
        rng = random.Random(5)
        for _ in range(40):
            a = [rng.uniform(0, 1) for _ in range(rng.randint(1, 10))]
            b = [rng.uniform(0, 1) for _ in range(rng.randint(1, 10))]
            r = ks_two_sample(a, b)
            assert 0.0 <= r.d_statistic <= 1.0
            assert 0.0 <= r.p_value <= 1.0


class TestPermutationOracleSelfChecks:
    """The DP oracle must agree with brute-force enumeration and scipy."""

    def test_exact_oracle_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(12):
            n = rng.randint(2, 5)
            m = rng.randint(2, 5)
            a = [rng.gauss(0, 1) for _ in range(n)]
            b = [rng.gauss(0.7, 1) for _ in range(m)]
            assert exact_perm_p(a, b) == pytest.approx(brute_perm_p(a, b), abs=1e-12)

    def test_exact_oracle_matches_scipy_exact(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(3, 10)
            m = rng.randint(3, 10)
            a = [rng.gauss(0, 1) for _ in range(n)]
            b = [rng.gauss(0.5, 1.3) for _ in range(m)]
            ref = scipy_stats.ks_2samp(a, b, method="exact").pvalue
            assert exact_perm_p(a, b) == pytest.approx(ref, abs=1e-9)

    def test_mc_oracle_converges_to_exact(self):
        rng = random.Random(41)
        a = [rng.gauss(0, 1) for _ in range(8)]
        b = [rng.gauss(0.8, 1) for _ in range(9)]
        exact = exact_perm_p(a, b)
        mc = mc_perm_p(a, b, resamples=200_000, seed=2)
        assert mc == pytest.approx(exact, abs=0.005)


class TestZscoreSeries:
    def test_simple_example(self):
        zs, degenerate = zscore_series([1.0, 2.0, 3.0])
        assert zs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
        assert not degenerate

    def test_constant_series_degenerate(self):
        zs, degenerate = zscore_series([5.0, 5.0, 5.0, 5.0])
        assert zs == [0.0, 0.0, 0.0, 0.0]
        assert degenerate

    def test_too_short(self):
        with pytest.raises(ValueError):
            zscore_series([1.0])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                    max_size=40))
    @example([0.0, 6.136647509344362e-162])  # squared deviations underflow
    @example([5e-324, 0.0])  # subnormal: scaling only the deviations fails
    @example([1e300, -1e300])  # squared deviations overflow
    @example([1e308, -1e308, 0.0])  # near the float maximum
    @settings(max_examples=200)
    def test_output_mean_zero_std_one(self, values):
        zs, degenerate = zscore_series(values)
        if degenerate:
            assert set(zs) == {0.0}
            return
        k = len(zs)
        mean = sum(zs) / k
        std = math.sqrt(sum((z - mean) ** 2 for z in zs) / (k - 1))
        assert abs(mean) < 1e-9
        assert abs(std - 1.0) < 1e-9

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2,
                    max_size=25),
           st.floats(min_value=1e-2, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3))
    @settings(max_examples=200)
    def test_affine_invariance(self, values, a, b):
        # integer-valued series keep their spread through a*v + b, so the
        # mathematical invariance is not drowned by float cancellation
        values = [float(v) for v in values]
        zs1, deg1 = zscore_series(values)
        zs2, deg2 = zscore_series([a * v + b for v in values])
        assert deg1 == deg2
        for x, y in zip(zs1, zs2):
            assert x == pytest.approx(y, abs=1e-6)


class TestPolyfit2:
    def test_exact_quadratic_recovery(self):
        xs = [float(i) for i in range(8)]
        ys = [2 + 3 * x + 0.5 * x * x for x in xs]
        (c0, c1, c2), fitted = polyfit2(xs, ys)
        assert c0 == pytest.approx(2.0, abs=1e-8)
        assert c1 == pytest.approx(3.0, abs=1e-8)
        assert c2 == pytest.approx(0.5, abs=1e-8)
        for f, y in zip(fitted, ys):
            assert f == pytest.approx(y, abs=1e-8)

    def test_linear_data_zero_curvature(self):
        xs = [float(i) for i in range(6)]
        ys = [1 + x for x in xs]
        (c0, c1, c2), _ = polyfit2(xs, ys)
        assert c0 == pytest.approx(1.0, abs=1e-8)
        assert c1 == pytest.approx(1.0, abs=1e-8)
        assert c2 == pytest.approx(0.0, abs=1e-8)

    def test_too_few_distinct_xs(self):
        with pytest.raises(ValueError):
            polyfit2([1.0, 1.0, 2.0], [0.0, 1.0, 2.0])

    def test_residual_orthogonal_to_design(self):
        rng = random.Random(13)
        xs = [float(i) for i in range(20)]
        ys = [0.3 * x * x - x + rng.gauss(0, 2) for x in xs]
        (c0, c1, c2), fitted = polyfit2(xs, ys)
        resid = np.array(ys) - np.array(fitted)
        u = np.array(xs) - np.mean(xs)
        for column in (np.ones_like(u), u, u * u):
            assert abs(float(resid @ column)) < 1e-8

    def test_local_optimality_probe(self):
        rng = random.Random(17)
        xs = [float(i) for i in range(20)]
        ys = [rng.uniform(-5, 5) for _ in xs]
        (c0, c1, c2), fitted = polyfit2(xs, ys)

        def rss(a0, a1, a2):
            return sum((y - (a0 + a1 * x + a2 * x * x)) ** 2
                       for x, y in zip(xs, ys))

        best = rss(c0, c1, c2)
        eps = 1e-3
        for di in range(3):
            for sign in (-1, 1):
                coeffs = [c0, c1, c2]
                coeffs[di] += sign * eps
                assert rss(*coeffs) >= best - 1e-12


class TestPairwiseKs:
    def test_identical_buckets_not_flagged(self):
        sample = [0.2, 0.4, 0.6, 0.8]
        buckets = {2010: bucket_of(2010, sample), 2011: bucket_of(2011, sample)}
        matrix = pairwise_ks(buckets, MoodScale.DEPRESSION)
        r = matrix.cells[(2010, 2011)]
        assert r.d_statistic == 0.0
        assert r.p_value == 1.0
        assert matrix.flags[(2010, 2011)] == FLAG_NONE

    def test_separated_buckets_flagged_and_oracle_confirms(self):
        rng = random.Random(2006)
        low = [min(0.99, max(0.01, rng.gauss(0.1, 0.03))) for _ in range(50)]
        high = [min(0.99, max(0.01, rng.gauss(0.9, 0.03))) for _ in range(50)]
        buckets = {2007: bucket_of(2007, low), 2012: bucket_of(2012, high)}
        matrix = pairwise_ks(buckets, MoodScale.DEPRESSION)
        assert matrix.flags[(2007, 2012)] == FLAG_SIGNIFICANT
        p_mc = mc_perm_p(low, high, resamples=100_000, seed=3)
        assert p_mc < 0.05

    def test_empty_bucket_skipped_and_recorded(self):
        buckets = {
            2010: bucket_of(2010, [0.1, 0.2, 0.3]),
            2011: YearBucket(vectors=[], zero_match_count=4),
            2012: bucket_of(2012, [0.15, 0.25, 0.35]),
        }
        matrix = pairwise_ks(buckets, MoodScale.DEPRESSION)
        assert not any(2011 in pair for pair in matrix.pairs())
        assert (2010, 2011) not in matrix.cells
        assert (2010, 2012) in matrix.cells

    def test_fewer_than_two_nonempty_buckets(self):
        buckets = {2010: bucket_of(2010, [0.5, 0.6])}
        with pytest.raises(ValueError):
            pairwise_ks(buckets, MoodScale.DEPRESSION)

    def test_csv_rows_one_per_unordered_pair(self):
        rng = random.Random(8)
        buckets = {y: bucket_of(y, [rng.uniform(0, 1) for _ in range(5)])
                   for y in (2010, 2011, 2012, 2013)}
        matrix = pairwise_ks(buckets, MoodScale.VIGOR)
        pairs = matrix.pairs()
        assert pairs == sorted(pairs) == list(matrix.flags)
        assert len(pairs) == 6
        assert all(a < b for a, b in pairs)

    def test_classify_thresholds(self):
        assert classify_p(0.049) == "significant"
        assert classify_p(0.05) == "marginal"
        assert classify_p(0.099) == "marginal"
        assert classify_p(0.1) == "none"


class TestBuildTrend:
    def test_planted_upward_trend_monotone_fit(self):
        rng = random.Random(101)
        buckets = {}
        for i, year in enumerate(range(2007, 2017)):
            level = 0.1 + 0.07 * i
            buckets[year] = bucket_of(
                year, [min(0.95, max(0.05, rng.gauss(level, 0.01)))
                       for _ in range(30)])
        trend = build_trend(buckets, MoodScale.DEPRESSION)
        assert not trend.degenerate
        diffs = [b - a for a, b in zip(trend.fitted, trend.fitted[1:])]
        assert all(d > 0 for d in diffs)

    def test_constant_buckets_degenerate(self):
        buckets = {y: bucket_of(y, [0.5, 0.5]) for y in (2010, 2011, 2012)}
        trend = build_trend(buckets, MoodScale.DEPRESSION)
        assert trend.degenerate
        assert trend.z_scores == [0.0, 0.0, 0.0]

    def test_fitted_matches_coefficients_on_centered_index(self):
        rng = random.Random(55)
        buckets = {y: bucket_of(y, [rng.uniform(0.2, 0.8) for _ in range(10)])
                   for y in range(2007, 2015)}
        trend = build_trend(buckets, MoodScale.DEPRESSION)
        k = len(trend.years)
        c0, c1, c2 = trend.fit_coeffs
        for i in range(k):
            x = i - (k - 1) / 2.0
            assert trend.fitted[i] == pytest.approx(c0 + c1 * x + c2 * x * x,
                                                    abs=1e-9)

    def test_raw_means_are_per_year_component_means(self):
        buckets = {
            2010: bucket_of(2010, [0.2, 0.4]),
            2011: bucket_of(2011, [0.6, 0.8]),
            2012: bucket_of(2012, [0.5, 0.5]),
        }
        trend = build_trend(buckets, MoodScale.DEPRESSION)
        assert trend.raw_means[0] == pytest.approx(0.3)
        assert trend.raw_means[1] == pytest.approx(0.7)

    def test_raw_means_equal_sequential_sums(self):
        # buckets.json and the trend read one column mean; it must match a
        # plain left-to-right float sum bit for bit, whatever the bucket size
        rng = random.Random(17)
        for n in (1, 2, 7, 129, 5000):
            samples = [rng.random() for _ in range(n)]
            total = 0.0
            for v in samples:
                total += v
            bucket = YearBucket([unit_vector(v) for v in samples])
            assert bucket.mean_vector()[1] == total / n

    def test_needs_three_nonempty_years(self):
        buckets = {2010: bucket_of(2010, [0.1]), 2011: bucket_of(2011, [0.2])}
        with pytest.raises(ValueError):
            build_trend(buckets, MoodScale.DEPRESSION)

    def test_reordering_emails_within_buckets_keeps_flags(self):
        rng = random.Random(66)
        samples = {y: [rng.uniform(0, 1) for _ in range(12)]
                   for y in (2010, 2011, 2012)}
        buckets_a = {y: bucket_of(y, s) for y, s in samples.items()}
        buckets_b = {y: bucket_of(y, list(reversed(s))) for y, s in samples.items()}
        ma = pairwise_ks(buckets_a, MoodScale.DEPRESSION)
        mb = pairwise_ks(buckets_b, MoodScale.DEPRESSION)
        assert ma.flags == mb.flags
        ta = build_trend(buckets_a, MoodScale.DEPRESSION)
        tb = build_trend(buckets_b, MoodScale.DEPRESSION)
        assert ta.fitted == pytest.approx(tb.fitted, abs=1e-12)

from __future__ import annotations

import bisect
import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import run_python, vector_bucket
from ks_merge_reference import ks_key
from ks_oracle import brute_perm_p, exact_perm_p, mc_perm_p, oracle_d
from moodtrends import stats
from moodtrends.lexicon import SCALES, MoodScale
from moodtrends.scoring import YearBucket
from moodtrends.stats import (FLAG_NONE, FLAG_SIGNIFICANT, build_trend,
                              classify_p, ks_two_sample, pairwise_ks,
                              polyfit2, zscore_series)


def unit_vector(depression: float) -> tuple[float, ...]:
    vigor = math.sqrt(max(0.0, 1.0 - depression * depression))
    return (0.0, depression, 0.0, vigor, 0.0, 0.0)


def bucket_of(year: int, depressions: list[float]) -> YearBucket:
    return vector_bucket([unit_vector(d) for d in depressions], year=year)


def bucket_of_components(tensions: list[float]) -> YearBucket:
    return vector_bucket([(t, 0.0, 0.0, 0.0, 0.0, 0.0) for t in tensions])


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

    @pytest.mark.parametrize("a, b", [([math.nan], [1.0]), ([1.0], [math.nan]),
                                      ([0.1, math.nan, 0.3], [0.2, 0.4])])
    def test_nan_rejected(self, a, b):
        with pytest.raises(ValueError, match="NaN"):
            ks_two_sample(a, b)

    def test_infinities_are_ordered_values(self):
        result = ks_two_sample([-math.inf, 0.0], [0.0, math.inf])
        assert result.d_statistic == 0.5

    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=25),
           st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), min_size=1, max_size=25))
    @example([-0.0, 0.0, 1.5, -math.inf], [0.0, -0.0, 3.0, math.inf])  # signed zeros tie
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


# small pools give heavy ties; -0.0 ties 0.0, and the infinities are values
_TIED_POOL = [-math.inf, -1.0, -0.0, 0.0, 0.125, 0.5, 1.0, 3.0, math.inf]


def merge_d_nums(samples):
    """{(i, j): d_num} for i < j from the two-pointer merge reference."""
    tables = [stats._step_table(s) for s in samples]
    return {(i, j): ks_key(tables[i], tables[j])[0]
            for i, j in itertools.combinations(range(len(samples)), 2)}


def packed_d_nums(samples):
    gaps = stats._gap_maxima([stats._step_table(s) for s in samples])
    return {(i, j): max(gaps[i][j], gaps[j][i])
            for i, j in itertools.combinations(range(len(samples)), 2)}


class TestPackedKs:
    """The packed walk gives every pair the D the two-pointer merge gives."""

    @given(st.lists(st.integers(1, 400), min_size=2, max_size=12),
           st.lists(st.sampled_from(_TIED_POOL), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    @example([1, 7, 3], [-0.0, 0.0, math.inf], random.Random(1))  # 8-bit fields
    @example([7, 8, 1], [-math.inf, 0.0, -0.0], random.Random(2))  # 16-bit fields
    @example([400, 1, 181, 400], _TIED_POOL, random.Random(3))  # 32-bit fields
    @example([5] * 12, [0.5], random.Random(4))  # one value everywhere
    @settings(max_examples=100, deadline=None)
    def test_d_num_equals_merge_reference(self, sizes, pool, rng):
        # each year draws from its own stretch of the sorted pool, so a pair's
        # D ranges from 0 to 1
        pool = sorted(pool)
        samples = []
        for n in sizes:
            lo = rng.randrange(len(pool))
            stretch = pool[lo:rng.randrange(lo, len(pool)) + 1]
            samples.append([rng.choice(stretch) for _ in range(n)])
        assert packed_d_nums(samples) == merge_d_nums(samples)

    # the sizes either side of each step in field width (8, 16, 32, 64 bits)
    # and the largest ones whose size² has 7, 15 or 31 bits, where one bit
    # less of field would leave no spare bit; year 0's gap to year 1 peaks at
    # n² - n and then falls to 0, so the fieldwise max must keep the peak
    @pytest.mark.parametrize("n", [7, 8, 11, 127, 128, 181, 32_767, 32_768, 46_340,
                                   65_537])
    def test_largest_gap_kept_at_each_field_width(self, n):
        samples = [[0.0] * (n - 1) + [2.0], [1.0] * n, [-0.0, 2.0], [0.5] * (n // 2 + 1)]
        d_nums = packed_d_nums(samples)
        assert d_nums == merge_d_nums(samples)
        assert d_nums[0, 1] == n * n - n

    def test_fields_wider_than_32_bits(self):
        # the largest year's size² needs 33 bits, so fields are 64 bits wide
        big = [i / 4096 for i in range(65_537)]
        samples = [big, [0.0, 1.0, 2.0], [17.0] * 5, [-1.0, 8.0, 16.0, math.inf],
                   big[::2], [v + 8.0 for v in big]]
        assert (len(big) ** 2).bit_length() + 2 > 32
        d_nums = packed_d_nums(samples)
        assert d_nums == merge_d_nums(samples)
        assert d_nums[0, 2] == len(big) * 5  # disjoint supports: D = 1
        for (i, j), d_num in d_nums.items():
            n, m = len(samples[i]), len(samples[j])
            assert ks_two_sample(samples[i], samples[j]).d_statistic == d_num / (n * m)


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
    @example([1.0, 1e16, -1e16])  # left-to-right sum 0.0, math.fsum 1.0
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

    @given(st.lists(st.tuples(st.integers(-60, 60), st.floats(-1e3, 1e3)),
                    min_size=3, max_size=60)
           .filter(lambda points: len({x for x, _ in points}) >= 3))
    @example([(i - 29.5, math.sin(i) + 0.01 * i * i) for i in range(60)])  # build_trend's xs
    @example([(0, 5e-324), (-1, 0.0), (2, 0.0)])  # every coefficient subnormal
    @settings(max_examples=300)
    def test_matches_lstsq_oracle(self, points):
        xs, ys = (list(col) for col in zip(*points))
        coeffs, fitted = polyfit2(xs, ys)
        x = np.array(xs, dtype=float)
        xbar = x.mean()
        u = x - xbar
        design = np.column_stack([np.ones_like(u), u, u * u])
        (a0, a1, a2), *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
        expected = (a0 - a1 * xbar + a2 * xbar * xbar, a1 - 2.0 * a2 * xbar, a2)
        for got, want in ((coeffs, expected), (fitted, design @ (a0, a1, a2))):
            # below the smallest normal float a rounding error is absolute,
            # so the relative bound stops shrinking there
            scale = max(*map(abs, [*got, *want]), sys.float_info.min)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9 * scale


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
            2011: YearBucket(rows=(), zero_match_count=4),
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

    def test_nan_component_rejected_not_looped_on(self):
        # in a child interpreter with a timeout: a NaN left unchecked stalls
        # the two-pointer merge, and that must fail the test, not hang it
        child = (
            "import math\n"
            "from moodtrends.lexicon import MoodScale\n"
            "from moodtrends.scoring import ScoredRecord, YearBucket\n"
            "from moodtrends.stats import pairwise_ks\n"
            "def bucket(ts):\n"
            "    return YearBucket(tuple(ScoredRecord(str(t), 2010, (t, 0.0, 0.0, 0.0, 0.0, 0.0),\n"
            "                                         1) for t in ts))\n"
            "buckets = {2010: bucket([0.1, math.nan]), 2011: bucket([0.2, 0.3])}\n"
            "try:\n"
            "    pairwise_ks(buckets, MoodScale.TENSION)\n"
            "except ValueError as exc:\n"
            "    print(f'ValueError: {exc}')\n")
        proc = run_python("-c", child, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ValueError: ")
        assert "NaN" in proc.stdout

    def test_csv_rows_one_per_unordered_pair(self):
        rng = random.Random(8)
        buckets = {y: bucket_of(y, [rng.uniform(0, 1) for _ in range(5)])
                   for y in (2010, 2011, 2012, 2013)}
        matrix = pairwise_ks(buckets, MoodScale.VIGOR)
        pairs = matrix.pairs()
        assert pairs == sorted(pairs) == list(matrix.flags)
        assert len(pairs) == 6
        assert all(a < b for a, b in pairs)

    # heavy ties from a small pool: signed zeros, an infinity and unequal sizes
    @given(st.dictionaries(
        st.integers(1990, 2030),
        st.lists(st.sampled_from([-0.0, 0.0, 0.25, 1.0, 2.0, math.inf]),
                 min_size=0, max_size=30),
        min_size=2, max_size=8))
    @example({2000: [0.0, -0.0, 1.0], 2001: [-0.0, math.inf, math.inf, 1.0, 0.0]})
    @settings(max_examples=150)
    def test_cells_equal_single_test_oracle_and_flag(self, samples):
        assume(sum(1 for v in samples.values() if v) >= 2)
        buckets = {y: bucket_of_components(v) for y, v in samples.items()}
        matrix = pairwise_ks(buckets, MoodScale.TENSION)
        years = sorted(y for y, v in samples.items() if v)
        assert matrix.pairs() == list(itertools.combinations(years, 2))
        for (ya, yb), result in matrix.cells.items():
            a, b = samples[ya], samples[yb]
            assert result == ks_two_sample(a, b)
            assert result.d_statistic == oracle_d(a, b)
            assert matrix.flags[ya, yb] == classify_p(result.p_value)

    def test_unequal_sizes_keep_pair_order(self):
        # (2000, 2001) and (2001, 2003) test the same two samples in the two
        # orders, (d_num, 3, 5) and (d_num, 5, 3); both orders give the same p
        short, long = [0.1, 0.2, 0.3], [0.15, 0.25, 0.35, 0.45, 0.55]
        samples = {2000: short, 2001: long, 2002: long[:4] + [0.9], 2003: short}
        matrix = pairwise_ks({y: bucket_of_components(v) for y, v in samples.items()},
                             MoodScale.TENSION)
        assert matrix.cells[2000, 2001].p_value == matrix.cells[2001, 2003].p_value
        for (ya, yb), result in matrix.cells.items():
            a, b = samples[ya], samples[yb]
            n, m = len(a), len(b)
            assert (result.n, result.m) == (n, m)
            assert result == ks_two_sample(a, b)
            d_num, *_ = ks_key(stats._step_table(a), stats._step_table(b))
            assert result.d_statistic == d_num / (n * m)
            assert matrix.flags[ya, yb] == classify_p(result.p_value)

    def test_one_value_everywhere_gives_d_zero_p_one(self):
        buckets = {y: bucket_of_components([0.5] * k)
                   for y, k in ((2010, 1), (2011, 4), (2012, 9))}
        matrix = pairwise_ks(buckets, MoodScale.TENSION)
        assert len(matrix.cells) == 3
        for pair, result in matrix.cells.items():
            assert (result.d_statistic, result.p_value) == (0.0, 1.0)
            assert matrix.flags[pair] == FLAG_NONE

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

    def test_raw_means_unchanged_by_row_order(self):
        # buckets.json and the trend read one column mean; reversing or
        # shuffling a year's rows must not move it by a bit, whatever the size
        rng = random.Random(17)
        for n in (1, 2, 7, 129, 5000):
            samples = {y: [rng.random() for _ in range(n)] for y in (2010, 2011, 2012)}
            forms = (samples,
                     {y: s[::-1] for y, s in samples.items()},
                     {y: rng.sample(s, n) for y, s in samples.items()})
            means = [[m.hex() for m in build_trend({y: bucket_of(y, s) for y, s in form.items()},
                                                   MoodScale.DEPRESSION).raw_means]
                     for form in forms]
            assert means[0] == means[1] == means[2]

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


class TestAnalyze:
    SAMPLES = {2010: [0.1, 0.2, 0.3], 2011: [0.15, 0.4, 0.5], 2012: [0.6, 0.7, 0.8]}

    def buckets(self, *years):
        # plus an empty bucket, which neither the KS nor the trend rule counts
        return {2000: YearBucket((), 3), **{y: bucket_of(y, self.SAMPLES[y]) for y in years}}

    @pytest.mark.parametrize("years", [(), (2010,)])
    def test_fewer_than_two_nonempty_years_rejected(self, years):
        with pytest.raises(ValueError, match=f"need at least two non-empty year buckets, "
                                             f"got {len(years)}"):
            stats.analyze(self.buckets(*years))

    def test_two_years_test_every_scale_and_fit_none(self):
        result = stats.analyze(self.buckets(2012, 2010))
        assert result.years == [2010, 2012]
        assert result.matrices == {s: pairwise_ks(self.buckets(2010, 2012), s) for s in SCALES}
        assert list(result.matrices) == list(SCALES)
        assert result.trends == {}

    def test_three_years_equal_the_per_scale_calls(self):
        buckets = self.buckets(2012, 2010, 2011)
        result = stats.analyze(buckets, 0.2, 0.5)
        assert result.years == [2010, 2011, 2012]
        assert result.matrices == {s: pairwise_ks(buckets, s, 0.2, 0.5) for s in SCALES}
        assert list(result.trends) == list(SCALES)
        assert result.trends == {s: build_trend(buckets, s) for s in SCALES}
        # D = 2/3 for 2010-2011: p is about 0.3, so the alphas decide its flag
        assert result.matrices != stats.analyze(buckets).matrices

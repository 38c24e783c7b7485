"""Statistical machinery: two-sample two-sided Kolmogorov-Smirnov tests,
pairwise year comparisons with significance flags, z-scored yearly means and
global quadratic trend fits."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .config import ALPHA_MARGINAL, ALPHA_SIGNIFICANT
from .lexicon import MoodScale
from .scoring import YearBucket, plain_sum

FLAG_NONE = "none"
FLAG_MARGINAL = "marginal"
FLAG_SIGNIFICANT = "significant"
_StepTable = tuple[list[float], list[int]]


class KsResult(NamedTuple):
    d_statistic: float
    p_value: float
    n: int
    m: int


def _kolmogorov_sf(lam: float) -> float:
    """Two-sided asymptotic tail probability 2*sum_k (-1)^(k-1) exp(-2k²λ²),
    truncated once terms drop below 1e-10 and clamped to [0, 1]."""
    if lam < 1e-3:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in itertools.count(1):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Exact D statistic from the two samples' step tables plus the asymptotic
    p-value with the small-sample effective-size correction
    lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D, ne = n*m/(n+m).

    D is computed from integer CDF counts at every pooled sample point (ties
    included), so it is exact and symmetric in the two samples. An empty
    sample or a NaN is rejected.
    """
    return _ks_result(*_ks_key(_step_table(a), _step_table(b)))


def _step_table(sample: Iterable[float]) -> _StepTable:
    """Distinct values ascending and the count <= each (the last is the size).
    Every KS sample is read here: ValueError if it is empty or holds a NaN."""
    counts = Counter(map(float, sample))
    if not counts:
        raise ValueError("both samples must be non-empty")
    if any(map(math.isnan, counts)):
        raise ValueError("samples must not contain NaN")
    values = sorted(counts)
    return values, list(itertools.accumulate(map(counts.__getitem__, values)))


def _ks_key(a: _StepTable, b: _StepTable) -> tuple[int, int, int]:
    """(d_num, n, m) for two step tables: d_num = max |F_a(v)*m - F_b(v)*n|
    over the pooled values v, F the counts <= v, by a two-pointer merge."""
    (xs, cx), (ys, cy) = a, b
    n, m, la, lb = cx[-1], cy[-1], len(xs), len(ys)
    i = j = fa = fb = d_num = 0
    # once either table is used up |fa*m - fb*n| only falls back to 0
    while i < la and j < lb:
        x, y = xs[i], ys[j]
        if x <= y:
            fa, i = cx[i], i + 1
        if y <= x:
            fb, j = cy[j], j + 1
        gap = fa * m - fb * n
        if gap > d_num or -gap > d_num:  # abs() only on a new maximum
            d_num = abs(gap)
    return d_num, n, m


def _ks_result(d_num: int, n: int, m: int) -> KsResult:
    d = d_num / (n * m)
    ne = n * m / (n + m)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    return KsResult(d, _kolmogorov_sf(lam), n, m)


def classify_p(p: float, alpha_significant: float = ALPHA_SIGNIFICANT,
               alpha_marginal: float = ALPHA_MARGINAL) -> str:
    if p < alpha_significant:
        return FLAG_SIGNIFICANT
    if p < alpha_marginal:
        return FLAG_MARGINAL
    return FLAG_NONE


class SignificanceMatrix:
    """Pairwise KS results for one mood dimension.

    cells and flags key every tested pair once, as (year_a, year_b) with
    year_a < year_b, in ascending order; each starts as a new empty dict.
    """

    def __init__(self, cells: dict[tuple[int, int], KsResult] | None = None,
                 flags: dict[tuple[int, int], str] | None = None) -> None:
        self.cells = {} if cells is None else cells
        self.flags = {} if flags is None else flags

    def pairs(self) -> list[tuple[int, int]]:
        """The tested year pairs in order; perfbench counts them as stats.ks_tests."""
        return list(self.cells)


def pairwise_ks(buckets: dict[int, YearBucket], dimension: MoodScale,
                alpha_significant: float = ALPHA_SIGNIFICANT,
                alpha_marginal: float = ALPHA_MARGINAL) -> SignificanceMatrix:
    """Run the KS test on the per-document components of one dimension for
    every unordered pair of years with non-empty buckets. Years whose bucket
    holds no vectors are skipped."""
    tables = {y: _step_table(buckets[y].components(dimension))
              for y in sorted(buckets) if buckets[y].vectors}
    if len(tables) < 2:
        raise ValueError("need at least two non-empty year buckets")
    matrix = SignificanceMatrix()
    # a result and its flag depend only on (d_num, n, m): one computation per key
    results: dict[tuple[int, int, int], tuple[KsResult, str]] = {}
    # tables is in ascending year order, so pairs come out (a < b) ascending
    for ya, yb in itertools.combinations(tables, 2):
        key = _ks_key(tables[ya], tables[yb])
        if key not in results:
            result = _ks_result(*key)
            results[key] = result, classify_p(result.p_value, alpha_significant,
                                              alpha_marginal)
        matrix.cells[ya, yb], matrix.flags[ya, yb] = results[key]
    return matrix


def zscore_series(values: Sequence[float]) -> tuple[list[float], bool]:
    """Standardize with the series mean and sample (n-1) standard deviation.

    Returns (z_scores, degenerate). A constant series has no spread; it maps
    to all zeros with degenerate=True.
    """
    k = len(values)
    if k < 2:
        raise ValueError("need at least two values to z-score")
    # z-scores are scale-free; an exact power of two brings the largest |v|
    # into [0.5, 1), so the squared deviations neither overflow nor underflow
    shift = math.frexp(max(abs(v) for v in values))[1]
    values = [math.ldexp(v, -shift) for v in values]
    mean = plain_sum(values) / k
    deviations = [v - mean for v in values]
    # second centering pass keeps the residual sum at the scale of the
    # spread rather than the magnitude, so badly conditioned series (tiny
    # spread on a huge offset) still come out with mean 0 to ~1e-15
    correction = plain_sum(deviations) / k
    deviations = [d - correction for d in deviations]
    var = plain_sum(d * d for d in deviations) / (k - 1)
    if var == 0.0:
        return [0.0] * k, True
    std = math.sqrt(var)
    return [d / std for d in deviations], False


def polyfit2(xs: Sequence[float], ys: Sequence[float]) -> tuple[tuple[float, float, float], list[float]]:
    """Least-squares quadratic fit y ~ c0 + c1*x + c2*x².

    The xs are centered, u = x - mean(x), and y is projected on 1, u and
    q = u² - g*u - s, which are orthogonal on those u (Forsythe 1957), so each
    coefficient is one ratio of sums. Returns (c0, c1, c2) mapped back to the
    caller's basis and the fitted values on the original xs.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(set(xs)) < 3:
        raise ValueError("need at least three distinct x values")
    k = len(xs)
    xbar = plain_sum(xs) / k
    u = [x - xbar for x in xs]
    uu = plain_sum(v * v for v in u)
    g, s = plain_sum(v * v * v for v in u) / uu, uu / k
    q = [v * v - g * v - s for v in u]
    b0, b1 = plain_sum(ys) / k, plain_sum(v * y for v, y in zip(u, ys)) / uu
    b2 = plain_sum(w * y for w, y in zip(q, ys)) / plain_sum(w * w for w in q)
    a0, a1 = b0 - b2 * s, b1 - b2 * g
    coeffs = (a0 - a1 * xbar + b2 * xbar * xbar, a1 - 2.0 * b2 * xbar, b2)
    return coeffs, [b0 + b1 * v + b2 * w for v, w in zip(u, q)]


class TrendSeries(NamedTuple):
    """Yearly means of one dimension, z-scored, with a global quadratic fit
    over centered year indices."""

    dimension: MoodScale
    years: list[int]
    raw_means: list[float]
    z_scores: list[float]
    fit_coeffs: tuple[float, float, float]
    fitted: list[float]
    degenerate: bool = False


def build_trend(buckets: dict[int, YearBucket], dimension: MoodScale) -> TrendSeries:
    """Per-year means -> z-scores -> quadratic fit on centered year indices."""
    years = sorted(y for y, b in buckets.items() if b.vectors)
    if len(years) < 3:
        raise ValueError("need at least three non-empty year buckets")
    # one column's mean per year; mean_vector() would sum all six columns
    raw_means = [plain_sum(buckets[y].components(dimension)) / len(buckets[y].vectors)
                 for y in years]
    z_scores, degenerate = zscore_series(raw_means)
    k = len(years)
    center = (k - 1) / 2.0
    xs = [i - center for i in range(k)]
    coeffs, fitted = polyfit2(xs, z_scores)
    return TrendSeries(dimension=dimension, years=years, raw_means=raw_means,
                       z_scores=z_scores, fit_coeffs=coeffs, fitted=fitted,
                       degenerate=degenerate)

"""Statistical machinery: two-sample two-sided Kolmogorov-Smirnov tests,
pairwise year comparisons with significance flags, z-scored yearly means and
global quadratic trend fits. `analyze` runs them all for one set of year
buckets and returns one `Analysis`, so a caller computes every test of a run
before it writes any of them. `pairwise_ks` owns the rule that KS needs two
non-empty years, and `analyze` the rule that a trend needs three.

KS D is exact: d_num / (n*m) from integer counts. For all year pairs of a
dimension at once, each pooled value gets one int packing every year's count
<= it, and each year walks only its own values against every other year
(`_gap_maxima`); `ks_two_sample` runs the same walk on two samples, and
`pairwise_ks` computes one result per distinct (d_num, n, m).
"""

from __future__ import annotations

import itertools
import math
import struct
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .config import ALPHA_MARGINAL, ALPHA_SIGNIFICANT
from .lexicon import SCALES, MoodScale
from .scoring import YearBucket

FLAG_NONE = "none"
FLAG_MARGINAL = "marginal"
FLAG_SIGNIFICANT = "significant"
_StepTable = tuple[list[float], list[int]]
# little-endian unsigned struct codes by field width in bits
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


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

    D = d_num / (n*m), with d_num the largest |F_a(v)*m - F_b(v)*n| over the
    pooled sample points v (ties included), F the integer counts <= v. It
    comes from the packed walk `pairwise_ks` runs (`_gap_maxima`), here on
    two samples, so it is exact and symmetric in them. An empty sample or a
    NaN is rejected.
    """
    ta, tb = _step_table(a), _step_table(b)
    (_, ab), (ba, _) = _gap_maxima([ta, tb])
    return _ks_result(max(ab, ba), ta[1][-1], tb[1][-1])


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


def _gap_maxima(tables: Sequence[_StepTable]) -> list[tuple[int, ...]]:
    """gaps[a][b] = max of F_a(v)*n_b - F_b(v)*n_a over table a's own values
    v, F the counts <= v and n the sizes; a pair's d_num is
    max(gaps[a][b], gaps[b][a]).

    The gap rises only at a value of a and falls only at one of b, so its
    maximum sits at a value of a and its minimum at a value of b. Each
    pooled value gets one int holding every table's count <= it in its own
    field, so a walk over a's values forms the gap to all tables at once
    (SIMD within a register, Fisher & Dietz 1998). A field holds the gap
    plus size², in [0, 2*size²], below a spare top bit that the fieldwise
    max borrows; fields are 8, 16, 32 or 64 bits wide (any table under
    2**31 values), so each walk's maxima read out in one little-endian
    decode. The arithmetic is all integer, so the result is exact.
    """
    sizes = [cum[-1] for _, cum in tables]
    offset = max(sizes) ** 2
    width = max(8, 1 << (offset.bit_length() + 1).bit_length())
    shifts = range(0, width * len(tables), width)
    steps: dict[float, int] = {}
    for shift, (values, cum) in zip(shifts, tables):
        below = 0
        for v, c in zip(values, cum):
            steps[v] = steps.get(v, 0) + ((c - below) << shift)
            below = c
    pooled = sorted(steps)
    rows = dict(zip(pooled, itertools.accumulate(map(steps.__getitem__, pooled))))
    ones = sum(1 << shift for shift in shifts)
    packed_sizes = sum(n << shift for n, shift in zip(sizes, shifts))
    top, floor = ones << (width - 1), offset * ones
    decode = struct.Struct(f"<{len(tables)}{_FIELD_CODES[width]}")
    gaps = []
    for (values, cum), n in zip(tables, sizes):
        best = floor  # a's gap is n*n_b >= 0 at its last value
        for v, f in zip(values, cum):
            gap = f * packed_sizes + floor - n * rows[v]
            # fieldwise max: a field's top bit of (best|top) - gap is set where best >= gap
            keep = ((best | top) - gap) & top
            best = gap ^ ((best ^ gap) & (keep - (keep >> (width - 1))))
        gaps.append(decode.unpack((best - floor).to_bytes(decode.size, "little")))
    return gaps


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


class SignificanceMatrix(NamedTuple):
    """Pairwise KS results for one mood dimension.

    cells and flags key every tested pair once, as (year_a, year_b) with
    year_a < year_b, in ascending order.
    """

    cells: dict[tuple[int, int], KsResult]
    flags: dict[tuple[int, int], str]

    def pairs(self) -> list[tuple[int, int]]:
        """The tested year pairs in order; perfbench counts them as stats.ks_tests."""
        return list(self.cells)


def pairwise_ks(buckets: dict[int, YearBucket], dimension: MoodScale,
                alpha_significant: float = ALPHA_SIGNIFICANT,
                alpha_marginal: float = ALPHA_MARGINAL) -> SignificanceMatrix:
    """Run the KS test on the per-document components of one dimension for
    every unordered pair of years with non-empty buckets. Years whose bucket
    holds no rows are skipped; fewer than two others is a ValueError."""
    years = [y for y in sorted(buckets) if buckets[y].rows]
    if len(years) < 2:
        raise ValueError(f"need at least two non-empty year buckets, got {len(years)}")
    tables = [_step_table(buckets[y].components(dimension)) for y in years]
    sizes = [cum[-1] for _, cum in tables]
    gaps = _gap_maxima(tables)
    # (d_num, n, m) of every pair (a < b), in itertools.combinations order
    keys: list[tuple[int, int, int]] = []
    for a, (row, col, n) in enumerate(zip(gaps, zip(*gaps), sizes), start=1):
        keys += zip(map(max, row[a:], col[a:]), itertools.repeat(n), sizes[a:])
    # a result and its flag depend only on (d_num, n, m): one of each per key
    results = {key: _ks_result(*key) for key in dict.fromkeys(keys)}
    flags = {key: classify_p(r.p_value, alpha_significant, alpha_marginal)
             for key, r in results.items()}
    pairs = list(itertools.combinations(years, 2))
    return SignificanceMatrix(dict(zip(pairs, map(results.__getitem__, keys))),
                              dict(zip(pairs, map(flags.__getitem__, keys))))


def zscore_series(values: Sequence[float]) -> tuple[list[float], bool]:
    """Standardize with the series mean and sample (n-1) standard deviation.

    Returns (z_scores, degenerate). A constant series has no spread; it maps
    to all zeros with degenerate=True.
    """
    k = len(values)
    if k < 2:
        raise ValueError("need at least two values to z-score")
    # z-scores are scale-free; an exact power of two brings the largest |v|
    # into [0.5, 1), so the squared deviations neither overflow (fsum raises) nor underflow
    shift = math.frexp(max(abs(v) for v in values))[1]
    values = [math.ldexp(v, -shift) for v in values]
    mean = math.fsum(values) / k
    deviations = [v - mean for v in values]
    # second centering pass keeps the residual sum at the scale of the
    # spread rather than the magnitude, so badly conditioned series (tiny
    # spread on a huge offset) still come out with mean 0 to ~1e-15
    correction = math.fsum(deviations) / k
    deviations = [d - correction for d in deviations]
    var = math.fsum(d * d for d in deviations) / (k - 1)
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
    xbar = math.fsum(xs) / k
    u = [x - xbar for x in xs]
    uu = math.fsum(v * v for v in u)
    g, s = math.fsum(v * v * v for v in u) / uu, uu / k
    q = [v * v - g * v - s for v in u]
    b0, b1 = math.fsum(ys) / k, math.fsum(v * y for v, y in zip(u, ys)) / uu
    b2 = math.fsum(w * y for w, y in zip(q, ys)) / math.fsum(w * w for w in q)
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
    years = sorted(y for y, b in buckets.items() if b.rows)
    if len(years) < 3:
        raise ValueError("need at least three non-empty year buckets")
    raw_means = [buckets[y].mean(dimension) for y in years]
    z_scores, degenerate = zscore_series(raw_means)
    k = len(years)
    center = (k - 1) / 2.0
    xs = [i - center for i in range(k)]
    coeffs, fitted = polyfit2(xs, z_scores)
    return TrendSeries(dimension=dimension, years=years, raw_means=raw_means,
                       z_scores=z_scores, fit_coeffs=coeffs, fitted=fitted,
                       degenerate=degenerate)


class Analysis(NamedTuple):
    """Every test of one run: the non-empty years in order, then one matrix
    and one trend per scale, keyed in SCALES order; trends is empty when
    fewer than three years are non-empty."""

    years: list[int]
    matrices: dict[MoodScale, SignificanceMatrix]
    trends: dict[MoodScale, TrendSeries]


def analyze(buckets: dict[int, YearBucket],
            alpha_significant: float = ALPHA_SIGNIFICANT,
            alpha_marginal: float = ALPHA_MARGINAL) -> Analysis:
    """pairwise_ks and, from three non-empty years on, build_trend for every
    scale. ValueError when fewer than two years are non-empty."""
    years = [y for y in sorted(buckets) if buckets[y].rows]
    matrices = {s: pairwise_ks(buckets, s, alpha_significant, alpha_marginal)
                for s in SCALES}
    trends = {s: build_trend(buckets, s) for s in SCALES} if len(years) >= 3 else {}
    return Analysis(years, matrices, trends)

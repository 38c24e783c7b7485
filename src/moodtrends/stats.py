"""Statistical machinery: two-sample two-sided Kolmogorov-Smirnov tests,
pairwise year comparisons with significance flags, z-scored yearly means and
global quadratic trend fits."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .lexicon import SCALE_INDEX, MoodScale
from .scoring import YearBucket

ALPHA_SIGNIFICANT = 0.05
ALPHA_MARGINAL = 0.10

FLAG_NONE = "none"
FLAG_MARGINAL = "marginal"
FLAG_SIGNIFICANT = "significant"


@dataclass(frozen=True)
class KsResult:
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
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Exact D statistic from the two sorted samples plus the asymptotic
    p-value with the small-sample effective-size correction
    lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D, ne = n*m/(n+m).

    D is computed from integer CDF counts at every pooled sample point (ties
    included), so it is exact and symmetric in the two samples.
    """
    if len(a) < 1 or len(b) < 1:
        raise ValueError("both samples must be non-empty")
    return _ks_sorted(np.sort(np.asarray(a, dtype=np.float64)),
                      np.sort(np.asarray(b, dtype=np.float64)))


def _ks_sorted(xs: np.ndarray, ys: np.ndarray) -> KsResult:
    n, m = len(xs), len(ys)
    pooled = np.concatenate((xs, ys))
    # i*m - j*n with i, j the counts of each sample <= every pooled point
    gaps = (np.searchsorted(xs, pooled, side="right") * m
            - np.searchsorted(ys, pooled, side="right") * n)
    d = int(np.abs(gaps).max()) / (n * m)
    if d == 0.0:
        return KsResult(0.0, 1.0, n, m)
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


@dataclass
class SignificanceMatrix:
    """Pairwise KS results for one mood dimension.

    cells and flags key every tested pair once, as (year_a, year_b) with
    year_a < year_b, in ascending order.
    """

    cells: dict[tuple[int, int], KsResult] = field(default_factory=dict)
    flags: dict[tuple[int, int], str] = field(default_factory=dict)

    def pairs(self) -> list[tuple[int, int]]:
        """The tested year pairs in order; perfbench counts them as stats.ks_tests."""
        return list(self.cells)


def pairwise_ks(buckets: dict[int, YearBucket], dimension: MoodScale,
                alpha_significant: float = ALPHA_SIGNIFICANT,
                alpha_marginal: float = ALPHA_MARGINAL) -> SignificanceMatrix:
    """Run the KS test on the per-document components of one dimension for
    every unordered pair of years with non-empty buckets. Years whose bucket
    holds no vectors are skipped."""
    samples = {y: np.sort(buckets[y].components(dimension))
               for y in sorted(buckets) if len(buckets[y].vectors)}
    if len(samples) < 2:
        raise ValueError("need at least two non-empty year buckets")
    matrix = SignificanceMatrix()
    # samples is in ascending year order, so pairs come out (a < b) ascending
    for ya, yb in itertools.combinations(samples, 2):
        result = _ks_sorted(samples[ya], samples[yb])
        matrix.cells[(ya, yb)] = result
        matrix.flags[(ya, yb)] = classify_p(result.p_value, alpha_significant,
                                            alpha_marginal)
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
    mean = sum(values) / k
    deviations = [v - mean for v in values]
    # second centering pass keeps the residual sum at the scale of the
    # spread rather than the magnitude, so badly conditioned series (tiny
    # spread on a huge offset) still come out with mean 0 to ~1e-15
    correction = sum(deviations) / k
    deviations = [d - correction for d in deviations]
    var = sum(d * d for d in deviations) / (k - 1)
    if var == 0.0:
        return [0.0] * k, True
    std = math.sqrt(var)
    return [d / std for d in deviations], False


def polyfit2(xs: Sequence[float], ys: Sequence[float]) -> tuple[tuple[float, float, float], list[float]]:
    """Least-squares quadratic fit y ~ c0 + c1*x + c2*x².

    The xs are centered at their mean before solving (orthogonalized
    least squares on the centered Vandermonde design) and the coefficients
    mapped back, so the returned (c0, c1, c2) are in the caller's basis.
    Returns the coefficients and the fitted values on the original xs.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(set(xs)) < 3:
        raise ValueError("need at least three distinct x values")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xbar = x.mean()
    u = x - xbar
    design = np.column_stack([np.ones_like(u), u, u * u])
    (a0, a1, a2), *_ = np.linalg.lstsq(design, y, rcond=None)
    c2 = a2
    c1 = a1 - 2.0 * a2 * xbar
    c0 = a0 - a1 * xbar + a2 * xbar * xbar
    fitted = (a0 + a1 * u + a2 * u * u).tolist()
    return (float(c0), float(c1), float(c2)), fitted


@dataclass
class TrendSeries:
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
    years = sorted(y for y, b in buckets.items() if len(b.vectors))
    if len(years) < 3:
        raise ValueError("need at least three non-empty year buckets")
    col = SCALE_INDEX[dimension]
    raw_means = [buckets[y].mean_vector()[col] for y in years]
    z_scores, degenerate = zscore_series(raw_means)
    k = len(years)
    center = (k - 1) / 2.0
    xs = [i - center for i in range(k)]
    coeffs, fitted = polyfit2(xs, z_scores)
    return TrendSeries(dimension=dimension, years=years, raw_means=raw_means,
                       z_scores=z_scores, fit_coeffs=coeffs, fitted=fitted,
                       degenerate=degenerate)

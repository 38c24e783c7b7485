"""Acceptance suite: one test (or test group) per acceptance criterion, each
printing a PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 4's two p-value-agreement clauses are strict-xfail: the mandated
asymptotic formula (lambda = (sqrt(ne)+0.12+0.11/sqrt(ne))*D) is tail-accurate
but provably cannot match the exact permutation distribution mid-range at the
stated tolerances (worst case |diff| = 0.28 at n=m=3, D=2/3 against a 0.05
tolerance; 0.099 at n=m=13 against 0.01). The tests run the stated check at
the stated tolerance with a fixed, untuned seed and record the failure; if
either ever passes, strict xfail turns it into a suite failure so the
discrepancy cannot silently vanish. The D statistic and runtime clauses of
criterion 4 are enforced as hard assertions.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import time

import numpy as np
import pytest

from conftest import PORTER_DATA, TESTS_DIR, make_record
from ks_oracle import exact_perm_p, mc_perm_p, oracle_d
from moodtrends import porter
from moodtrends.cli import EXIT_OK, main
from moodtrends.corpus import filter_english
from moodtrends.lexicon import SCALES, MoodScale
from moodtrends.scoring import ScoredRecord, bucket_scores, match_counts, score_record
from moodtrends.stats import (build_trend, ks_two_sample, pairwise_ks, polyfit2,
                              zscore_series)
from moodtrends.synth import generate_corpus, make_trend_spec
from moodtrends.textproc import porter_stem, tokenize

SEED = 20060101


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


# --------------------------------------------------------------------------
# 1. stemmer conformance


def test_c1_stemmer_conformance():
    voc = (PORTER_DATA / "voc.txt").read_text().split()
    out = (PORTER_DATA / "output.txt").read_text().split()
    t0 = time.perf_counter()
    mismatches = sum(1 for w, o in zip(voc, out) if porter.stem(w) != o)
    elapsed = time.perf_counter() - t0
    agree = len(voc) - mismatches
    ok = mismatches == 0 and elapsed < 1.0 and porter.stem("angry") == "angri"
    report(f"1 stemmer-conformance: {'PASS' if ok else 'FAIL'} "
           f"({agree}/{len(voc)} vocabulary entries agree, {elapsed:.2f}s, "
           f"angry->{porter.stem('angry')}, angrily->{porter.stem('angrily')})")
    assert mismatches == 0
    assert elapsed < 1.0
    assert porter.stem("angry") == "angri"
    # the vocabulary itself fixes the stem of "angrily"
    idx = voc.index("angrily")
    assert porter.stem("angrily") == out[idx] == "angrili"


# --------------------------------------------------------------------------
# 2. lexicon matching fixture


def test_c2_lexicon_matching_fixture(matcher):
    stems = [porter_stem(t) for t in tokenize("I have been feeling daunted")]
    per_term = match_counts(stems, matcher)
    counts = {matcher.main_terms[i]: c for i, c in enumerate(per_term) if c}
    scale_counts = [0] * len(SCALES)
    for i, c in enumerate(per_term):
        scale_counts[matcher.scale_index[i]] += c
    depression = scale_counts[SCALES.index(MoodScale.DEPRESSION)]
    ok = counts == {"discouraged": 1} and depression == 1
    report(f"2 lexicon-matching-fixture: {'PASS' if ok else 'FAIL'} "
           f"(counts={counts}, depression component={depression})")
    assert counts == {"discouraged": 1}
    assert tuple(scale_counts) == (0, 1, 0, 0, 0, 0)


# --------------------------------------------------------------------------
# 3. normalization


def test_c3_normalization(matcher, default_lexicon):
    # 3 tension hits and 4 depression hits: the (3, 4, 0, 0, 0, 0) count vector
    v = score_record(make_record("tense tense tense sad sad sad sad"), matcher)
    assert v.match_count == 7
    exact = all(abs(a - b) <= 1e-12 for a, b in
                zip(v.components, (0.6, 0.8, 0.0, 0.0, 0.0, 0.0)))

    specs = [make_trend_spec(MoodScale.DEPRESSION, "linear(0.5, 1)", noise_sd=0.7),
             make_trend_spec(MoodScale.VIGOR, "constant(2)", noise_sd=0.7),
             make_trend_spec(MoodScale.FATIGUE, "constant(1)", noise_sd=0.7)]
    records = generate_corpus(specs, range(2008, 2016), 25, default_lexicon,
                              seed=SEED)
    buckets = bucket_scores(score_record(r, matcher) for r in records)
    worst = 0.0
    count = 0
    for bucket in buckets.values():
        for _, _, vec, _ in bucket.rows:
            worst = max(worst, abs(math.sqrt(sum(c * c for c in vec)) - 1.0))
            count += 1
    ok = exact and worst < 1e-9 and count > 100
    report(f"3 normalization: {'PASS' if ok else 'FAIL'} "
           f"((3,4,0..)->(0.6,0.8,0..) exact={exact}; {count} emitted vectors, "
           f"worst |norm-1| = {worst:.2e})")
    assert exact
    assert count > 100
    assert worst < 1e-9


# --------------------------------------------------------------------------
# 4. KS oracle equivalence


@pytest.fixture(scope="module")
def ks_oracle_runs():
    rng = random.Random(SEED)
    t0 = time.perf_counter()

    def draw_pair(lo, hi):
        n = rng.randint(lo, hi)
        m = rng.randint(lo, hi)
        shift = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0])
        a = [rng.gauss(0, 1) for _ in range(n)]
        b = [rng.gauss(shift, 1) for _ in range(m)]
        return a, b

    small = []
    for _ in range(200):
        a, b = draw_pair(3, 12)
        result = ks_two_sample(a, b)
        small.append((result, oracle_d(a, b), exact_perm_p(a, b)))

    mid = []
    for i in range(200):
        a, b = draw_pair(13, 30)
        result = ks_two_sample(a, b)
        mid.append((result, oracle_d(a, b),
                    mc_perm_p(a, b, resamples=100_000, seed=SEED + i)))

    elapsed = time.perf_counter() - t0
    return small, mid, elapsed


def test_c4_ks_d_statistic_exact_and_runtime(ks_oracle_runs):
    small, mid, elapsed = ks_oracle_runs
    d_mismatches = sum(1 for result, d_oracle, _ in small + mid
                       if result.d_statistic != d_oracle)
    ok = d_mismatches == 0 and elapsed < 60.0
    report(f"4 ks-d-statistic+runtime: {'PASS' if ok else 'FAIL'} "
           f"(400 pairs, D exact mismatches={d_mismatches}, oracle runtime "
           f"{elapsed:.1f}s < 60s)")
    assert d_mismatches == 0
    assert elapsed < 60.0


@pytest.mark.xfail(
    strict=True,
    reason="asymptotic p cannot match the exact permutation p within 0.05 "
           "for n,m in [3,12]: the worst achievable gap is 0.28 (n=m=3, "
           "D=2/3, exact 0.60 vs asymptotic 0.32) and ~27% of random null "
           "pairs exceed the tolerance, so 200 honest pairs always contain "
           "violations")
def test_c4_ks_asymptotic_vs_exact_small(ks_oracle_runs):
    small, _, _ = ks_oracle_runs
    diffs = [abs(result.p_value - p_exact) for result, _, p_exact in small]
    worst = max(diffs)
    violations = sum(1 for d in diffs if d > 0.05)
    ok = violations == 0
    report(f"4a ks-p-agreement-small [3,12]: {'PASS' if ok else 'FAIL'} "
           f"(200 pairs vs exact permutation, tolerance 0.05, "
           f"violations={violations}, worst |diff|={worst:.3f})")
    assert worst <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason="asymptotic p cannot match a 1e5-resample Monte-Carlo permutation "
           "p within 0.01 for n,m in [13,30]: the worst achievable gap in "
           "that size range is 0.099 (n=m=13) and typical mid-range gaps are "
           "0.02-0.06, an order of magnitude over the tolerance")
def test_c4_ks_asymptotic_vs_mc_mid(ks_oracle_runs):
    _, mid, _ = ks_oracle_runs
    diffs = [abs(result.p_value - p_mc) for result, _, p_mc in mid]
    worst = max(diffs)
    violations = sum(1 for d in diffs if d > 0.01)
    ok = violations == 0
    report(f"4b ks-p-agreement-mid [13,30]: {'PASS' if ok else 'FAIL'} "
           f"(200 pairs vs 1e5-resample MC permutation, tolerance 0.01, "
           f"violations={violations}, worst |diff|={worst:.3f})")
    assert worst <= 0.01


def test_c4_supplement_tail_agreement(ks_oracle_runs):
    """The accuracy envelope the asymptotic formula does satisfy, pinned so
    regressions in the p-value path stay visible despite the xfails above:
    wherever the oracle p is decision-relevant (<= 0.1), agreement holds
    within 0.05 for n,m >= 5 and within 0.03 for n,m in [13,30]."""
    small, mid, _ = ks_oracle_runs
    worst_small = 0.0
    for result, _, p_exact in small:
        if p_exact <= 0.10 and min(result.n, result.m) >= 5:
            worst_small = max(worst_small, abs(result.p_value - p_exact))
    worst_mid = 0.0
    for result, _, p_mc in mid:
        if p_mc <= 0.10:
            worst_mid = max(worst_mid, abs(result.p_value - p_mc))
    ok = worst_small <= 0.05 and worst_mid <= 0.03
    report(f"4c ks-p-tail-envelope: {'PASS' if ok else 'FAIL'} "
           f"(p<=0.1 region: small-size worst {worst_small:.3f} <= 0.05, "
           f"mid-size worst {worst_mid:.3f} <= 0.03)")
    assert worst_small <= 0.05
    assert worst_mid <= 0.03


# --------------------------------------------------------------------------
# 5. planted-trend recovery


def filtered_buckets(records, matcher):
    """The CLI's route: the language filter hands each kept record and its
    tokens to score_record, and the rows go to bucket_scores."""
    rows = []
    filter_english(records, on_kept=lambda rec, tokens:
                   rows.append(score_record(rec, matcher, tokens)))
    return bucket_scores(rows)


def test_c5_planted_trend_recovery(default_lexicon, matcher):
    t0 = time.perf_counter()
    years = range(2007, 2017)

    def run_pipeline(specs, seed):
        records = generate_corpus(specs, years, 50, default_lexicon, seed=seed)
        buckets = filtered_buckets(records, matcher)
        return {dim: pairwise_ks(buckets, dim)
                for dim in (MoodScale.DEPRESSION, MoodScale.VIGOR)}

    planted_specs = [
        make_trend_spec(MoodScale.DEPRESSION, "step(1, 6, 5)", noise_sd=0.5),
        make_trend_spec(MoodScale.VIGOR, "constant(3)", noise_sd=0.5),
    ]
    null_specs = [
        make_trend_spec(MoodScale.DEPRESSION, "constant(1)", noise_sd=0.5),
        make_trend_spec(MoodScale.VIGOR, "constant(3)", noise_sd=0.5),
    ]

    cross_pairs = [(ya, yb) for ya in range(2007, 2012)
                   for yb in range(2012, 2017)]
    recovered_runs = 0
    for seed in range(100):
        matrices = run_pipeline(planted_specs, seed)
        dep = matrices[MoodScale.DEPRESSION]
        if all(dep.flags.get(pair) == "significant" for pair in cross_pairs):
            recovered_runs += 1

    false_rates = []
    for seed in range(100):
        matrices = run_pipeline(null_specs, 10_000 + seed)
        tested = 0
        flagged = 0
        for matrix in matrices.values():
            for pair in matrix.pairs():
                tested += 1
                if matrix.flags[pair] == "significant":
                    flagged += 1
        false_rates.append(flagged / tested)
    mean_false_rate = sum(false_rates) / len(false_rates)

    elapsed = time.perf_counter() - t0
    ok = recovered_runs >= 95 and mean_false_rate <= 0.07 and elapsed < 300
    report(f"5 planted-trend-recovery: {'PASS' if ok else 'FAIL'} "
           f"(step recovered in {recovered_runs}/100 runs >= 95; null false "
           f"significant rate {mean_false_rate:.3f} <= 0.07; {elapsed:.0f}s < 300s)")
    assert recovered_runs >= 95
    assert mean_false_rate <= 0.07
    assert elapsed < 300


def test_c5b_planted_curvature_recovery(default_lexicon, matcher):
    """The paper reads its trends as shapes (long-term optimism, medium-term
    apprehension and confusion), so the sign of the fitted quadratic term c2
    must survive the full pipeline. Bounds, fixed before the first run: the
    planted sign in >= 95/100 runs per shape, and each shape's median |c2|
    above the 95th percentile of |c2| on constant null corpora."""
    t0 = time.perf_counter()
    years = range(2007, 2017)
    anchor = make_trend_spec(MoodScale.VIGOR, "constant(3)", noise_sd=0.5)

    def fitted_c2(dimension, profile, seeds):
        specs = [make_trend_spec(dimension, profile, noise_sd=0.5), anchor]
        out = []
        for seed in seeds:
            records = generate_corpus(specs, years, 50, default_lexicon, seed=seed)
            buckets = filtered_buckets(records, matcher)
            out.append(build_trend(buckets, dimension).fit_coeffs[2])
        return out

    hump = fitted_c2(MoodScale.TENSION, "quadratic(1, 1.2, -0.12)", range(100))
    bowl = fitted_c2(MoodScale.CONFUSION, "quadratic(4, -1.2, 0.12)", range(1000, 1100))
    null = [abs(c) for c in fitted_c2(MoodScale.TENSION, "constant(2)",
                                      range(10_000, 10_100))]
    hump_signed = sum(c < 0 for c in hump)
    bowl_signed = sum(c > 0 for c in bowl)
    hump_median = statistics.median(abs(c) for c in hump)
    bowl_median = statistics.median(abs(c) for c in bowl)
    null_p95 = float(np.percentile(null, 95))

    elapsed = time.perf_counter() - t0
    ok = (hump_signed >= 95 and bowl_signed >= 95
          and min(hump_median, bowl_median) > null_p95)
    report(f"5b planted-curvature-recovery: {'PASS' if ok else 'FAIL'} "
           f"(hump c2 < 0 in {hump_signed}/100 >= 95; bowl c2 > 0 in "
           f"{bowl_signed}/100 >= 95; median |c2| hump {hump_median:.3f}, bowl "
           f"{bowl_median:.3f} > null p95 {null_p95:.3f}; null |c2| median "
           f"{statistics.median(null):.3f}, max {max(null):.3f}; {elapsed:.0f}s)")
    assert hump_signed >= 95
    assert bowl_signed >= 95
    assert hump_median > null_p95
    assert bowl_median > null_p95


# --------------------------------------------------------------------------
# 6. trend machinery


def test_c6_trend_machinery():
    rng = random.Random(SEED)

    xs = [float(i) for i in range(12)]
    ys = [2 + 3 * x + 0.5 * x * x for x in xs]
    (c0, c1, c2), _ = polyfit2(xs, ys)
    coeff_err = max(abs(c0 - 2), abs(c1 - 3), abs(c2 - 0.5))

    worst_mean, worst_std, worst_affine = 0.0, 0.0, 0.0
    for _ in range(100):
        k = rng.randint(2, 40)
        series = [rng.uniform(-100.0, 100.0) for _ in range(k)]
        zs, degenerate = zscore_series(series)
        if degenerate:
            continue
        mean = sum(zs) / k
        std = math.sqrt(sum((z - mean) ** 2 for z in zs) / (k - 1))
        worst_mean = max(worst_mean, abs(mean))
        worst_std = max(worst_std, abs(std - 1.0))
        a = rng.uniform(0.1, 50.0)
        b = rng.uniform(-100.0, 100.0)
        zs2, _ = zscore_series([a * v + b for v in series])
        worst_affine = max(worst_affine,
                           max(abs(x - y) for x, y in zip(zs, zs2)))

    ok = (coeff_err <= 1e-8 and worst_mean <= 1e-9 and worst_std <= 1e-9
          and worst_affine <= 1e-9)
    report(f"6 trend-machinery: {'PASS' if ok else 'FAIL'} "
           f"(polyfit coeff err {coeff_err:.1e} <= 1e-8; z mean {worst_mean:.1e} "
           f"and std dev {worst_std:.1e} <= 1e-9; affine invariance worst "
           f"{worst_affine:.1e} on 100 series)")
    assert coeff_err <= 1e-8
    assert worst_mean <= 1e-9
    assert worst_std <= 1e-9
    assert worst_affine <= 1e-9


# --------------------------------------------------------------------------
# 7. throughput at full corpus scale


def test_c7_throughput(default_lexicon, matcher):
    specs = [make_trend_spec(s, "constant(10)") for s in SCALES]
    records = generate_corpus(specs, range(2006, 2037), 347, default_lexicon,
                              seed=SEED)
    assert len(records) >= 10_741
    words_per_email = sum(len(r.body.split()) for r in records) / len(records)
    assert words_per_email >= 150

    t0 = time.perf_counter()
    buckets = bucket_scores(score_record(r, matcher) for r in records)
    t_score = time.perf_counter() - t0

    t1 = time.perf_counter()
    for dim in SCALES:
        pairwise_ks(buckets, dim)
    t_total = t_score + (time.perf_counter() - t1)

    years = len(buckets)
    ok = t_score < 5.0 and t_total < 60.0
    report(f"7 throughput: {'PASS' if ok else 'FAIL'} "
           f"({len(records)} emails of ~{words_per_email:.0f} words scored in "
           f"{t_score:.2f}s < 5s; + {years}-year pairwise KS x 6 dims = "
           f"{t_total:.2f}s < 60s)")
    assert t_score < 5.0
    assert t_total < 60.0


# --------------------------------------------------------------------------
# 8. determinism


def test_c8_determinism(tmp_path):
    spec = tmp_path / "step.spec"
    spec.write_text(
        "years = 2007-2016\nemails_per_year = 30\norigin_year = 2006\n"
        "seed = 42\nnoise_sd = 0.5\n"
        "trend.depression = step(1, 6, 5)\ntrend.vigor = constant(3)\n")
    corpus = tmp_path / "corpus.tsv"
    assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == EXIT_OK

    lexicon_path = tmp_path / "lexicon.txt"
    from importlib import resources
    lexicon_path.write_text(
        resources.files("moodtrends.data").joinpath("default_lexicon.txt").read_text("utf-8"))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["analyze", "--corpus", str(corpus),
                   "--lexicon", str(lexicon_path), "--output-dir", str(out),
                   "--emit-svg"])
        assert rc == EXIT_OK

    names = sorted(p.name for p in out_a.iterdir())
    diffs = [n for n in names
             if (out_a / n).read_bytes() != (out_b / n).read_bytes()]
    ok = not diffs and len(names) >= 12
    report(f"8 determinism: {'PASS' if ok else 'FAIL'} "
           f"({len(names)} output files byte-identical across two runs"
           f"{'' if not diffs else '; differing: ' + ', '.join(diffs)})")
    assert diffs == []


# --------------------------------------------------------------------------
# 9. paper-scale pipeline on committed paper-shaped and null specs

LEXICON = TESTS_DIR.parent / "src" / "moodtrends" / "data" / "default_lexicon.txt"


def test_c9_paper_scale_pipeline(tmp_path):
    t0 = time.perf_counter()
    codes, ks_rows, ks_seconds = [], {}, {}
    for name in ("paper_scale", "paper_null"):
        corpus, score_out, an_out = (tmp_path / f"{name}.tsv", tmp_path / name / "score",
                                     tmp_path / name / "analyze")
        codes += [
            main(["synth", "--spec", str(TESTS_DIR / "data" / f"{name}.spec"),
                  "--out", str(corpus)]),
            main(["score", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                  "--output-dir", str(score_out)]),
            main(["analyze", "--scores", str(score_out / "scores.csv"),
                  "--output-dir", str(an_out)])]
        ks_rows[name] = [len((an_out / f"ks_{s.value}.csv").read_text().splitlines()) - 1
                         for s in SCALES]
        with open(score_out / "scores.csv", encoding="utf-8", newline="") as fh:
            buckets = bucket_scores(
                ScoredRecord(r["id"], int(r["delivery_year"]),
                             tuple(float(r[s.value]) for s in SCALES), int(r["match_count"]))
                for r in csv.DictReader(fh))
        t1 = time.perf_counter()
        for dim in SCALES:
            pairwise_ks(buckets, dim)
        ks_seconds[name] = time.perf_counter() - t1
    wall = time.perf_counter() - t0

    rows_ok = all(rows == [465] * len(SCALES) for rows in ks_rows.values())
    ks_ok = all(t < 60.0 for t in ks_seconds.values())
    ok = codes == [EXIT_OK] * 6 and rows_ok and ks_ok
    report(f"9 paper-scale-pipeline: {'PASS' if ok else 'FAIL'} "
           f"(synth -> score -> analyze --scores on paper_scale and paper_null "
           f"exit {codes}; 465 rows in every ks_*.csv: {rows_ok}; KS x 6 dims "
           + ", ".join(f"{n} {t:.2f}s" for n, t in ks_seconds.items())
           + f" < 60s; wall {wall:.1f}s)")
    assert codes == [EXIT_OK] * 6
    assert rows_ok, ks_rows
    assert ks_ok, ks_seconds

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth_reference
from ks_oracle import mc_perm_p
from moodtrends.corpus import filter_english, format_record_line, load_word_list
from moodtrends.lexicon import MoodScale, compile_lexicon, load_default_lexicon, load_lexicon
from moodtrends.scoring import bucket_scores, score_record
from moodtrends.stats import pairwise_ks
from moodtrends.synth import (_FUNCTION_FILLERS, MAX_TERMS_PER_SCALE, _safe_fillers,
                              generate_corpus, make_trend_spec, parse_profile)
from moodtrends.textproc import tokenize

YEARS = range(2007, 2017)


def step_specs(noise: float = 0.0):
    return [
        make_trend_spec(MoodScale.DEPRESSION, "step(1, 6, 5)", noise_sd=noise),
        make_trend_spec(MoodScale.VIGOR, "constant(3)", noise_sd=noise),
    ]


class TestProfiles:
    def test_parse_shapes(self):
        fn = parse_profile("constant(2.5)")
        assert fn(0) == fn(9) == 2.5
        assert parse_profile("linear(0.5)")(4) == 2.0
        assert parse_profile("linear(0.5, 1)")(4) == 3.0
        assert parse_profile("quadratic(1, 0, 0.25)")(2) == 2.0
        fn = parse_profile("step(1, 6, 5)")
        assert fn(4) == 1 and fn(5) == 6

    def test_bad_profiles_rejected(self):
        for expr in ("wobble(1)", "constant()", "step(1,2)", "linear(a)", "", "step"):
            with pytest.raises(ValueError):
                parse_profile(expr)

    @pytest.mark.parametrize("expr", ["constant(1,)", "constant(,1)", "step(1, 6, , 5)",
                                      "linear( , )", "quadratic(1,,2,3)"])
    def test_empty_argument_rejected(self, expr):
        with pytest.raises(ValueError) as info:
            parse_profile(expr)
        assert str(info.value) == f"bad profile arguments in {expr!r}"

    @pytest.mark.parametrize("expr,message", [
        ("step(1, 2)", "step takes 3 arguments, got 2 in 'step(1, 2)'"),
        ("linear(1, 2, 3)", "linear takes 1 or 2 arguments, got 3 in 'linear(1, 2, 3)'"),
        ("constant()", "constant takes 1 argument, got 0 in 'constant()'"),
        ("Quadratic( )", "quadratic takes 3 arguments, got 0 in 'Quadratic( )'"),
    ])
    def test_wrong_argument_count_named(self, expr, message):
        with pytest.raises(ValueError) as info:
            parse_profile(expr)
        assert str(info.value) == message

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            make_trend_spec(MoodScale.VIGOR, "constant(1)", noise_sd=-0.1)


class TestGenerateCorpus:
    def test_deterministic_byte_identical(self, default_lexicon):
        a = generate_corpus(step_specs(0.5), YEARS, 5, default_lexicon, seed=42)
        b = generate_corpus(step_specs(0.5), YEARS, 5, default_lexicon, seed=42)
        assert [format_record_line(r) for r in a] == \
            [format_record_line(r) for r in b]

    def test_distinct_seeds_differ(self, default_lexicon):
        a = generate_corpus(step_specs(0.5), YEARS, 5, default_lexicon, seed=42)
        b = generate_corpus(step_specs(0.5), YEARS, 5, default_lexicon, seed=43)
        assert [r.body for r in a] != [r.body for r in b]

    def test_record_count_and_dates(self, default_lexicon):
        records = generate_corpus(step_specs(), YEARS, 50, default_lexicon,
                                  seed=1, origin_year=2006)
        assert len(records) == 500
        assert all(r.compose_date.year == 2006 for r in records)
        years = sorted({r.delivery_year for r in records})
        assert years == list(YEARS)

    def test_unknown_scale_energy_rejected(self, default_lexicon):
        stripped = type(default_lexicon)(
            entries=tuple(e for e in default_lexicon.entries
                          if e.scale is not MoodScale.ANGER),
            version="cut")
        with pytest.raises(ValueError, match="anger"):
            generate_corpus([make_trend_spec(MoodScale.ANGER, "constant(1)")],
                            YEARS, 1, stripped, seed=0)

    def test_empty_year_range_rejected(self, default_lexicon):
        with pytest.raises(ValueError):
            generate_corpus(step_specs(), [], 5, default_lexicon, seed=0)

    @pytest.mark.parametrize("years,repeated", [([2010, 2010], 2010),
                                                 ([2012, 2010, 2011, 2010], 2010)])
    def test_repeated_year_rejected(self, default_lexicon, years, repeated):
        # each repeat would write a second record under every id of its year
        with pytest.raises(ValueError, match=f"^year {repeated} is repeated$"):
            generate_corpus(step_specs(), years, 2, default_lexicon, seed=0)

    def test_bodies_pass_english_filter(self, default_lexicon):
        records = generate_corpus(step_specs(0.5), YEARS, 10, default_lexicon,
                                  seed=9)
        result = filter_english(records)
        assert result.rejected == []

    def test_function_fillers_are_function_words(self, matcher):
        # bodies clear the language filter only because every filler slot
        # holds one of these words, and all 20 survive the default lexicon
        assert set(_FUNCTION_FILLERS) <= set(load_word_list("function_words"))
        kept = _safe_fillers(matcher.stem_memo.stems, _FUNCTION_FILLERS)
        assert kept == list(_FUNCTION_FILLERS) and len(kept) == 20

    def test_fillers_avoid_every_lexicon_stem(self):
        # garden and kitchen are filler nouns and with a function filler; a
        # lexicon term or phrase word with their stem takes them out of use
        lexicon = load_lexicon([
            "garden | tension", "gloomy | depression", "with | anger",
            "lively | vigor", "weary | fatigue | kitchen sink", "puzzled | confusion",
        ])
        records = generate_corpus([make_trend_spec(MoodScale.VIGOR, "constant(2)")],
                                  range(2010, 2013), 20, lexicon, seed=4)
        matcher = compile_lexicon(lexicon)
        for rec in records:
            assert not {"garden", "with", "kitchen"} & set(tokenize(rec.body))
            assert score_record(rec, matcher).match_count == 2

    def test_colliding_term_never_planted(self):
        # tensing stems to tense's stem, which the earlier tension entry
        # claims, so a planted tensing would score tension, not vigor
        lexicon = load_lexicon([
            "tense | tension", "gloomy | depression", "angry | anger",
            "calm | vigor | tensing", "weary | fatigue", "puzzled | confusion",
        ])
        records = generate_corpus([make_trend_spec(MoodScale.VIGOR, "linear(1, 1)")],
                                  range(2010, 2014), 10, lexicon, seed=2)
        matcher = compile_lexicon(lexicon)
        assert len(records) == 40
        for rec in records:
            row = score_record(rec, matcher)
            assert row.match_count == rec.delivery_year - 2010 + 1
            assert row.components == (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def test_scale_whose_every_term_collides_rejected(self):
        lexicon = load_lexicon([
            "tense | tension", "gloomy | depression", "angry | anger",
            "tensing | vigor | tenses", "weary | fatigue", "puzzled | confusion",
        ])
        with pytest.raises(ValueError, match="^no lexicon term scores for scale vigor$"):
            generate_corpus([make_trend_spec(MoodScale.VIGOR, "constant(1)")],
                            YEARS, 1, lexicon, seed=0)

    def test_null_corpus_identical_vectors_and_no_flags(self, default_lexicon, matcher):
        specs = [
            make_trend_spec(MoodScale.DEPRESSION, "constant(2)"),
            make_trend_spec(MoodScale.VIGOR, "constant(3)"),
        ]
        records = generate_corpus(specs, range(2010, 2014), 8, default_lexicon,
                                  seed=5)
        buckets = bucket_scores(score_record(r, matcher) for r in records)
        comps = {v for b in buckets.values() for _, _, v, _ in b.rows}
        assert len(comps) == 1  # every email scores (0, 2, 0, 3, 0, 0)/norm
        for dim in (MoodScale.DEPRESSION, MoodScale.VIGOR):
            matrix = pairwise_ks(buckets, dim)
            assert all(flag == "none" for flag in matrix.flags.values())

    def test_planted_scales_only_when_intensity_positive(self, default_lexicon, matcher):
        specs = [make_trend_spec(MoodScale.FATIGUE, "step(0, 4, 2)")]
        records = generate_corpus(specs, range(2010, 2014), 6, default_lexicon,
                                  seed=7)
        buckets = bucket_scores(score_record(r, matcher) for r in records)
        # years below the step have intensity 0: no lexicon terms at all
        for year in (2010, 2011):
            assert buckets[year].zero_match_count == 6
            assert buckets[year].rows == ()
        for year in (2012, 2013):
            assert buckets[year].zero_match_count == 0
            assert all(c == 1.0 for c in buckets[year].components(MoodScale.FATIGUE))

    def test_step_corpus_flags_cross_step_pairs(self, default_lexicon, matcher):
        records = generate_corpus(step_specs(0.0), YEARS, 50, default_lexicon,
                                  seed=2006)
        buckets = bucket_scores(score_record(r, matcher) for r in records)
        matrix = pairwise_ks(buckets, MoodScale.DEPRESSION)
        years = sorted(buckets)
        low_years, high_years = years[:5], years[5:]
        for ya in low_years:
            for yb in high_years:
                assert matrix.flags[(ya, yb)] == "significant", (ya, yb)
        # permutation oracle agrees the planted gap is real
        a = buckets[low_years[0]].components(MoodScale.DEPRESSION)
        b = buckets[high_years[0]].components(MoodScale.DEPRESSION)
        assert mc_perm_p(a, b, resamples=100_000, seed=11) < 0.05

    def test_origin_year_after_first_bucket_rejected(self, default_lexicon):
        with pytest.raises(ValueError):
            generate_corpus(step_specs(), YEARS, 2, default_lexicon, seed=0,
                            origin_year=2012)

    def test_planted_rising_trend_gives_monotone_fit(self, default_lexicon, matcher):
        from moodtrends.stats import build_trend
        # the anchor is large so the depression component stays in the
        # gently-curved region where a global quadratic remains monotone
        specs = [
            make_trend_spec(MoodScale.DEPRESSION, "linear(1, 1)"),
            make_trend_spec(MoodScale.VIGOR, "constant(15)"),
        ]
        records = generate_corpus(specs, YEARS, 20, default_lexicon, seed=31)
        buckets = bucket_scores(score_record(r, matcher) for r in records)
        trend = build_trend(buckets, MoodScale.DEPRESSION)
        assert not trend.degenerate
        raw_diffs = [b - a for a, b in zip(trend.raw_means, trend.raw_means[1:])]
        assert all(d > 0 for d in raw_diffs)
        fit_diffs = [b - a for a, b in zip(trend.fitted, trend.fitted[1:])]
        assert all(d > 0 for d in fit_diffs)


# tension has exactly one term, so every pick of it keeps drawing
# getrandbits(1) until 0; depression has four, a power of two; fatigue's
# second term is a phrase
SMALL_LEXICON = [
    "tense | tension",
    "sad | depression | sorrowful, glum, gloomy",
    "angry | anger | mad, furious",
    "lively | vigor | spirited, energetic",
    "weary | fatigue | worn out",
    "dazed | confusion | foggy, muddled",
]
_LEXICONS = {"small": load_lexicon(SMALL_LEXICON), "default": load_default_lexicon()}

_level = st.floats(-3, 8).map(repr)
_slope = st.floats(-2, 2).map(repr)
_PROFILE = st.one_of(
    st.builds("constant({})".format, _level),
    st.builds("linear({})".format, _slope),
    st.builds("linear({}, {})".format, _slope, _level),
    st.builds("quadratic({}, {}, {})".format, _level, _slope, st.floats(-0.5, 0.5).map(repr)),
    st.builds("step({}, {}, {})".format, _level, _level, st.integers(-1, 6).map(str)),
)
_PLAN = st.lists(
    st.tuples(st.sampled_from([s.value for s in MoodScale]), _PROFILE,
              st.one_of(st.just(0.0), st.floats(0.01, 3))),
    min_size=1, max_size=4, unique_by=lambda t: t[0])


class TestOracle:
    """generate_corpus gives the records of the choice/shuffle generator
    kept in tests/synth_reference.py."""

    @given(plan=_PLAN, lexicon=st.sampled_from(sorted(_LEXICONS)),
           first_year=st.integers(1990, 2030), n_years=st.integers(1, 5),
           emails_per_year=st.integers(1, 4),
           origin_back=st.one_of(st.none(), st.integers(0, 3)),
           seed=st.integers(-2**64, 2**64))
    @settings(max_examples=150, deadline=None)
    # letters of 0, 1 and 2 chunks: shuffle draws nothing below 2
    @example(plan=[("tension", "constant(0)", 0.0)], lexicon="small", first_year=2010,
             n_years=2, emails_per_year=2, origin_back=None, seed=0)
    @example(plan=[("tension", "constant(1)", 0.0)], lexicon="small", first_year=2010,
             n_years=2, emails_per_year=2, origin_back=None, seed=1)
    @example(plan=[("depression", "constant(2)", 0.0)], lexicon="small", first_year=2010,
             n_years=2, emails_per_year=2, origin_back=1, seed=2)
    @example(plan=[("tension", "constant(1)", 0.0), ("anger", "constant(1)", 0.0)],
             lexicon="default", first_year=2010, n_years=2, emails_per_year=2,
             origin_back=0, seed=3)
    # C7's density: 60-chunk letters, so 59-draw shuffles at every k from 1
    # to 6, and picks from every scale of the default lexicon (34 to 55
    # terms, none a power of two, so picks are rejected and drawn again)
    @example(plan=[(s.value, "constant(10)", 0.0) for s in MoodScale], lexicon="default",
             first_year=2006, n_years=3, emails_per_year=4, origin_back=None, seed=1)
    def test_same_records_as_reference(self, plan, lexicon, first_year, n_years,
                                       emails_per_year, origin_back, seed):
        specs = [make_trend_spec(MoodScale(scale), expr, noise_sd=noise)
                 for scale, expr, noise in plan]
        years = range(first_year, first_year + n_years)
        origin = None if origin_back is None else first_year - origin_back
        args = (specs, years, emails_per_year, _LEXICONS[lexicon], seed, origin)
        assert generate_corpus(*args) == synth_reference.generate_corpus(*args)


class TestCountCeiling:
    @pytest.mark.parametrize("expr,year,shown", [
        ("quadratic(0, 1e308, 1e308)", 2011, "inf"),
        ("quadratic(0, 1e308, -1e308)", 2012, "nan"),
        ("quadratic(0, -1e308, -1e308)", 2011, "-inf"),
        ("constant(1e12)", 2010, "1e+12"),
        (f"constant({MAX_TERMS_PER_SCALE + 1})", 2010, "10001"),
    ])
    def test_count_over_ceiling_rejected(self, default_lexicon, expr, year, shown):
        spec = make_trend_spec(MoodScale.VIGOR, expr)
        with pytest.raises(ValueError) as info:
            generate_corpus([spec], range(2010, 2014), 2, default_lexicon, seed=1)
        assert str(info.value) == (
            f"trend.vigor plants {shown} terms in a {year} letter; "
            f"the ceiling is {MAX_TERMS_PER_SCALE} per scale per letter")

    def test_count_at_ceiling_drawn(self):
        # 10000.5 rounds half to even, so exactly the ceiling
        spec = make_trend_spec(MoodScale.TENSION, f"constant({MAX_TERMS_PER_SCALE}.5)")
        [record] = generate_corpus([spec], [2010], 1, _LEXICONS["small"], seed=3)
        assert tokenize(record.body).count("tense") == MAX_TERMS_PER_SCALE

from __future__ import annotations

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bucket_reference
import match_reference
from conftest import PORTER_DATA, make_record, vector_bucket
from moodtrends.lexicon import (SCALES, MoodScale, StemMemo, compile_lexicon,
                                load_default_lexicon, load_lexicon)
from moodtrends.scoring import ScoredRecord, bucket_scores, match_counts, score_record
from moodtrends.textproc import porter_stem, tokenize

SINGLES_ONLY = """\
tense | tension
sad | depression
angry | anger
lively | vigor
weary | fatigue
dazed | confusion
"""
# one single-word term per scale of SINGLES_ONLY, in scale order
SCALE_WORDS = ("tense", "sad", "angry", "lively", "weary", "dazed")


@pytest.fixture(scope="module")
def singles_matcher():
    return compile_lexicon(load_lexicon(SINGLES_ONLY.splitlines()))


# the default lexicon has no phrase inside a longer one; here each such pair
# belongs to two terms, so a scan that tried shorter phrases first would show
NESTED = """\
tense | tension | on edge, edge of seat
sad | depression | blue, feeling blue
angry | anger | fed up, on edge again
lively | vigor | worn out again
weary | fatigue | worn out
dazed | confusion | fed up again
"""
SCAN_MATCHERS = (compile_lexicon(load_default_lexicon()),
                 compile_lexicon(load_lexicon(NESTED.splitlines())))
# stem chunks of both lexicons: every single, every phrase and every proper
# phrase prefix, plus stems that start no match and the stem memo's "" for a
# token that reaches no lexicon stem
STEM_CHUNKS = sorted(
    {(s,) for m in SCAN_MATCHERS for s in m.singles}
    | {p[:k] for m in SCAN_MATCHERS for p in m.phrases for k in range(1, len(p) + 1)}
    | {("tabl",), ("the",), ("zzz",), ("",)})


def term_counts(tokens, matcher) -> dict[str, int]:
    """Nonzero match counts keyed by main term."""
    counts = match_counts([porter_stem(t) for t in tokens], matcher)
    return {matcher.main_terms[i]: c for i, c in enumerate(counts) if c}


def score_counts(scale_counts, matcher) -> ScoredRecord:
    """Score a body holding scale_counts[k] hits on scale k."""
    words = [w for w, k in zip(SCALE_WORDS, scale_counts) for _ in range(k)]
    return score_record(make_record(" ".join(words)), matcher)


def norm(components) -> float:
    return math.sqrt(sum(c * c for c in components))


class TestScoreTokens:
    def test_daunted_increments_discouraged(self, matcher):
        counts = term_counts(tokenize("I felt daunted today"), matcher)
        assert counts == {"discouraged": 1}

    def test_repeated_matches_accumulate(self, matcher):
        counts = term_counts(tokenize("angrily angrily"), matcher)
        assert counts == {"angry": 2}
        counts = term_counts(tokenize("angry angry angry"), matcher)
        assert counts == {"angry": 3}

    def test_phrase_consumes_its_words(self, matcher):
        counts = term_counts(tokenize("he lost momentum yesterday"), matcher)
        assert counts == {"discouraged": 1}

    def test_longest_match_wins_across_entries(self, matcher):
        # "beat" alone scores tired (fatigue), "beat down" scores discouraged
        assert term_counts(tokenize("beat"), matcher) == {"tired": 1}
        assert term_counts(tokenize("i feel beat down"), matcher) == {"discouraged": 1}

    def test_no_overlapping_rescan(self, matcher):
        # after consuming "lost momentum", "momentum" is not rescanned
        counts = term_counts(tokenize("lost momentum momentum"), matcher)
        assert counts == {"discouraged": 1}

    def test_empty_tokens(self, matcher):
        assert term_counts([], matcher) == {}

    def test_phrase_prefix_at_stream_end_no_match(self, matcher):
        # "full of pep" is a 3-word phrase; a truncated prefix scores nothing
        assert term_counts(tokenize("he was full of"), matcher) == {}
        assert term_counts(tokenize("lost"), matcher) == {}

    def test_phrase_interrupted_by_other_word_no_match(self, matcher):
        assert term_counts(tokenize("lost the momentum"), matcher) == {}

    def test_inflected_forms_match_by_stem(self, matcher):
        assert term_counts(tokenize("worrying"), matcher) == {"worried": 1}
        assert term_counts(tokenize("angered"), matcher) == {"angry": 1}

    @given(st.lists(st.sampled_from(STEM_CHUNKS), max_size=20))
    # a phrase head that is also a single
    @example([("beat",), ("beat", "down"), ("beat",), ("down",)])
    # phrases cut off by the end of the sequence
    @example([("full", "of")])
    @example([("wide",)])
    # overlapping phrases: the earlier one, when whole, consumes the overlap
    @example([("burn", "out"), ("of", "ga")])
    @example([("full",), ("of", "two", "mind")])
    # a phrase inside a longer one (NESTED)
    @example([("on", "edg", "again"), ("on", "edg"), ("of", "seat")])
    # a phrase broken by a token the memo maps to ""
    @example([("lost",), ("",), ("momentum",)])
    @settings(max_examples=500)
    def test_matches_full_scan_reference(self, chunks):
        stems = [s for chunk in chunks for s in chunk]
        for m in SCAN_MATCHERS:
            assert match_counts(stems, m) == match_reference.match_counts(stems, m)

    @given(st.lists(st.sampled_from(
        ["tense", "sad", "angry", "lively", "weary", "dazed", "table", "run"]),
        max_size=30))
    @settings(max_examples=100)
    def test_single_word_lexicon_permutation_invariant(self, singles_matcher, words):
        shuffled = words[:]
        random.Random(3).shuffle(shuffled)
        assert (term_counts(words, singles_matcher)
                == term_counts(shuffled, singles_matcher))

    @given(st.lists(st.sampled_from(
        ["tense", "sad", "angry", "table", "run"]), max_size=20),
        st.lists(st.sampled_from(
            ["lively", "weary", "dazed", "chair"]), max_size=20))
    @settings(max_examples=100)
    def test_additivity_for_single_word_lexicon(self, singles_matcher, left, right):
        combined = term_counts(left + right, singles_matcher)
        a = term_counts(left, singles_matcher)
        b = term_counts(right, singles_matcher)
        merged = dict(a)
        for k, v in b.items():
            merged[k] = merged.get(k, 0) + v
        assert combined == merged


class TestScoringKey:
    """Each scale's component is the sum of the counts of its main terms,
    before normalization; match_count is the total over all terms."""

    def test_scoring_key_application(self, matcher):
        scored = score_record(make_record("angry angry daunted"), matcher)
        assert scored.match_count == 3
        assert scored.components == tuple(c / math.sqrt(5) for c in (0, 1, 2, 0, 0, 0))

    def test_empty_counts_zero_vector(self, matcher):
        scored = score_record(make_record("the kitchen table"), matcher)
        assert scored.components == (0, 0, 0, 0, 0, 0)
        assert scored.match_count == 0

    def test_same_scale_terms_sum(self, matcher):
        scored = score_record(make_record("sad sad gloomy gloomy gloomy"), matcher)
        assert scored.match_count == 5
        assert scored.components[SCALES.index(MoodScale.DEPRESSION)] == 1.0

    def test_total_mass_preserved(self, matcher):
        body = "angry angry daunted tired tired tired tired"
        assert score_record(make_record(body), matcher).match_count == 7


class TestNormalize:
    def test_three_four_five(self, singles_matcher):
        scored = score_counts((3, 4, 0, 0, 0, 0), singles_matcher)
        assert scored.components == (0.6, 0.8, 0.0, 0.0, 0.0, 0.0)

    def test_uniform_vector(self, singles_matcher):
        scored = score_counts((1, 1, 1, 1, 1, 1), singles_matcher)
        for c in scored.components:
            assert c == pytest.approx(1 / math.sqrt(6), abs=1e-12)

    def test_zero_vector_signals(self, singles_matcher):
        # no direction to normalize: flagged by match_count 0 and kept out
        # of the bucket's rows
        scored = score_counts((0, 0, 0, 0, 0, 0), singles_matcher)
        assert scored.match_count == 0
        bucket = bucket_scores([scored])[scored.delivery_year]
        assert bucket.rows == ()
        assert bucket.zero_match_count == 1

    def test_norm_within_tolerance(self, singles_matcher):
        scored = score_counts((3, 1, 7, 2, 0, 5), singles_matcher)
        assert abs(norm(scored.components) - 1.0) < 1e-9

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=6,
                    max_size=6),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, singles_matcher, comps, scale_factor):
        # repeating every hit scale_factor times leaves the direction as is
        if sum(comps) == 0:
            return
        base = score_counts(comps, singles_matcher)
        scaled = score_counts([c * scale_factor for c in comps], singles_matcher)
        for x, y in zip(base.components, scaled.components):
            assert x == pytest.approx(y, abs=1e-9)


class TestScoreCorpus:
    def test_bucket_composition(self, matcher):
        records = [
            make_record("I felt daunted today", rec_id="hit", delivery="2010-06-01"),
            make_record("the kitchen table is wooden", rec_id="miss", delivery="2010-06-01"),
        ]
        buckets = bucket_scores(score_record(r, matcher) for r in records)
        assert set(buckets) == {2010}
        bucket = buckets[2010]
        assert len(bucket.rows) == 1
        assert isinstance(bucket.rows, tuple)
        assert all(isinstance(v, tuple) and len(v) == 6
                   and all(type(c) is float for c in v) for _, _, v, _ in bucket.rows)
        assert bucket.zero_match_count == 1
        assert norm(bucket.rows[0].components) == pytest.approx(1.0)

    def test_empty_input(self, matcher):
        assert bucket_scores(score_record(r, matcher) for r in []) == {}

    def test_partition_accounting(self, matcher):
        bodies = ["daunted", "nothing here", "so angry and so tired",
                  "table chair", "worrying all day"]
        records = [make_record(b, rec_id=f"r{i}", delivery=f"20{10 + i % 2}-01-0{i + 1}")
                   for i, b in enumerate(bodies)]
        buckets = bucket_scores(score_record(r, matcher) for r in records)
        total = sum(len(b.rows) for b in buckets.values())
        zeros = sum(b.zero_match_count for b in buckets.values())
        assert total + zeros == len(records)

    def test_permutation_invariance_as_multisets(self, matcher):
        records = [make_record(b, rec_id=f"r{i}", delivery="2012-01-01")
                   for i, b in enumerate(["angry", "daunted", "tired", "angry sad"])]
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        b1 = bucket_scores(score_record(r, matcher) for r in records)[2012]
        b2 = bucket_scores(score_record(r, matcher) for r in shuffled)[2012]
        assert (sorted(v for _, _, v, _ in b1.rows)
                == sorted(v for _, _, v, _ in b2.rows))
        assert b1.zero_match_count == b2.zero_match_count

    def test_score_record_audit_fields(self, matcher):
        rec = make_record("daunted and angry", delivery="2015-02-03")
        scored = score_record(rec, matcher)
        assert scored.id == rec.id
        assert scored.delivery_year == 2015
        assert scored.match_count == 2
        assert scored.components[SCALES.index(MoodScale.DEPRESSION)] == pytest.approx(
            1 / math.sqrt(2))


# stems of one and two letters, and stems ending in the e, i or l that a
# Porter step may add (edgi, heavi, ei, full, sunni, possibl)
SHORT_STEMS = """\
edgy | tension | go, on edge
low | depression | a bit low, heavy eyed
cross | anger | full of it
sunny | vigor | up, possible
eyed | fatigue | heavy eyed again
lost | confusion | at sea
"""
MEMO_LEXICONS = (load_default_lexicon(), load_lexicon(SINGLES_ONLY.splitlines()),
                 load_lexicon(NESTED.splitlines()), load_lexicon(SHORT_STEMS.splitlines()))
VOCABULARY = (PORTER_DATA / "voc.txt").read_text().split()
# every main term and phrase of the four lexicons, whole and word by word
LEXICON_TEXT = sorted({t for lex in MEMO_LEXICONS for e in lex.entries
                       for phrase in (e.main_term, *e.extended)
                       for t in (phrase, *phrase.split())})
APOSTROPHE_FORMS = ["'sad'", "o'n", "''", "eye's", "don't", "full'", "'possible",
                    "wear'y", "go'ing"]


class _PorterRoute(dict):
    """A stem memo that stems every token: the scorer's route before the memo."""

    def __missing__(self, token):
        return porter_stem(token)


def lexicon_stem_set(matcher) -> set[str]:
    return set(matcher.singles).union(*matcher.phrases)


class TestStemMemo:
    """score_record stems through the matcher's memo, which stems only the
    tokens that can reach the lexicon; the rows are those of stemming every
    token."""

    @given(st.lists(st.one_of(st.sampled_from(VOCABULARY), st.sampled_from(LEXICON_TEXT),
                              st.sampled_from(APOSTROPHE_FORMS)), max_size=40),
           st.sampled_from([" ", ", ", "\n", "-"]))
    @example(["possibility", "heavy", "eyed", "going", "fully", "sunnier", "o'n"], " ")
    @settings(max_examples=300)
    def test_rows_equal_stemming_every_token(self, words, sep):
        rec = make_record(sep.join(words))
        for lex in MEMO_LEXICONS:
            matcher = compile_lexicon(lex)
            porter_route = matcher._replace(stem_memo=_PorterRoute())
            assert score_record(rec, matcher) == score_record(rec, porter_route)
            # the tokens a caller already holds score like the body
            assert score_record(rec, matcher, tokenize(rec.body)) == score_record(rec, matcher)
            stems = lexicon_stem_set(matcher)
            assert matcher.stem_memo.stems == stems and "" not in stems
            assert set(matcher.stem_memo.values()) <= stems | {""}
            assert set(matcher.stem_memo) == set(tokenize(rec.body))

    def test_memo_keeps_only_lexicon_stems(self):
        matcher = compile_lexicon(MEMO_LEXICONS[3])
        rec = make_record("Possibility, heavy-eyed, going on edge, full fully the table's")
        score_record(rec, matcher)
        # fully passes the prefix test (ful) but stems to fulli, no lexicon stem
        assert matcher.stem_memo == {
            "possibility": "possibl", "heavy": "heavi", "eyed": "ei", "going": "go",
            "on": "on", "edge": "edg", "full": "full", "fully": "", "the": "",
            "table's": ""}
        # the stem i has an empty prefix, which begins every word
        memo = StemMemo(frozenset({"i"}))
        assert [memo[w] for w in ("i", "is", "zebra")] == ["i", "", ""]

    def test_scoring_leaves_porter_stem_cache_alone(self):
        # the memo stems each token once itself; porter_stem's lru cache is
        # compile_lexicon's, so scoring moves neither its hits nor its misses
        rec = make_record("Possibility, heavy-eyed, go'ing on edge, fully the table's")
        matcher = compile_lexicon(MEMO_LEXICONS[3])
        before = porter_stem.cache_info()
        row = score_record(rec, matcher)
        after = porter_stem.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert matcher.stem_memo["go'ing"] == "go" and matcher.stem_memo["fully"] == ""
        assert row == score_record(rec, matcher._replace(stem_memo=_PorterRoute()))

    def test_used_matcher_differs_from_fresh_compile(self):
        fresh = compile_lexicon(MEMO_LEXICONS[0])
        used = compile_lexicon(MEMO_LEXICONS[0])
        assert used == fresh
        score_record(make_record("so angry today"), used)
        assert used.stem_memo and used != fresh

    def test_threads_sharing_one_matcher_score_like_serial(self):
        rng = random.Random(7)
        words = VOCABULARY + LEXICON_TEXT + APOSTROPHE_FORMS
        records = [make_record(" ".join(rng.choices(words, k=60)), rec_id=f"r{i}",
                               delivery=f"{2010 + i % 5}-01-01") for i in range(800)]
        serial = [score_record(rec, compile_lexicon(MEMO_LEXICONS[3])) for rec in records]
        shared = compile_lexicon(MEMO_LEXICONS[3])
        chunks = [records[i:i + 100] for i in range(0, len(records), 100)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(lambda c: [score_record(r, shared) for r in c], c)
                           for c in chunks]
                rows = [row for f in futures for row in f.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert rows == serial
        assert set(shared.stem_memo.values()) <= lexicon_stem_set(shared) | {""}


# surface forms that stem like lexicon words: Porter strips these endings
INFLECTIONS = ("", "s", "ed", "ing", "ly", "ness", "er", "est")
# one matcher per lexicon, its stem memo filled across examples as a run fills it
SCORE_MATCHERS = tuple(map(compile_lexicon, MEMO_LEXICONS))


class TestScoreRecord:
    """score_record sums counts per scale as ints; its rows are those of the
    float fold over every token's Porter stem."""

    @given(st.lists(st.one_of(
        st.builds(str.__add__, st.sampled_from(LEXICON_TEXT), st.sampled_from(INFLECTIONS)),
        st.sampled_from(APOSTROPHE_FORMS), st.sampled_from(VOCABULARY)), max_size=40))
    # zero-match rows
    @example([])
    @example(["the", "table's", "zzz", "fully"])
    # several hits on one scale and on several
    @example(["angry"] * 7 + ["sad", "sadness", "tense"] * 3 + ["lost", "momentum"])
    @settings(max_examples=300)
    def test_equals_float_fold_reference(self, words):
        rec = make_record(" ".join(words))
        tokens = tokenize(rec.body)
        for matcher in SCORE_MATCHERS:
            assert (score_record(rec, matcher, tokens)
                    == match_reference.score_record(rec, matcher, tokens))


class TestBucketScores:
    """bucket_scores keeps each year's matched rows in input order, and its
    buckets read the components the vector-form reference reads."""

    @given(st.lists(st.tuples(
        st.lists(st.one_of(st.sampled_from(LEXICON_TEXT), st.sampled_from(VOCABULARY)),
                 max_size=12),
        st.sampled_from((2007, 2008, 2010))), max_size=30))
    @example([])
    @example([(["the", "table"], 2008), (["sad", "angry"], 2008), (["zzz"], 2007)])
    @settings(max_examples=200, deadline=None)
    def test_rows_kept_in_input_order_and_read_as_reference(self, docs):
        for matcher in SCORE_MATCHERS:
            rows = [score_record(make_record(" ".join(words), rec_id=f"r{i}",
                                             delivery=f"{year}-06-01"), matcher)
                    for i, (words, year) in enumerate(docs)]
            buckets = bucket_scores(rows)
            reference = bucket_reference.bucket_scores(rows)
            assert list(buckets) == list(reference)
            for year, bucket in buckets.items():
                year_rows = [r for r in rows if r.delivery_year == year]
                matched = [r for r in year_rows if r.match_count]
                assert ([(r.id, r.delivery_year, r.match_count) for r in bucket.rows]
                        == [(r.id, r.delivery_year, r.match_count) for r in matched])
                assert all(type(c) is float and len(r.components) == len(SCALES)
                           for r in bucket.rows for c in r.components)
                assert bucket.zero_match_count == len(year_rows) - len(matched)
                vectors, zeros = reference[year]
                assert zeros == bucket.zero_match_count
                for s in SCALES:
                    assert ([c.hex() for c in bucket.components(s)]
                            == [c.hex() for c in bucket_reference.components(vectors, s)])
                    if vectors:
                        assert bucket.mean(s).hex() == bucket_reference.mean(vectors, s).hex()


class TestYearBucket:
    @given(st.lists(st.lists(st.floats(-1e300, 1e300), min_size=6, max_size=6),
                    min_size=1, max_size=40), st.randoms(use_true_random=False))
    @example([[-0.0, 0.5, 0.0, 0.0, 0.0, 1.0], [-0.0, 0.25, 0.0, 0.0, 0.0, 1.0]],
             random.Random(0))
    @example([[1.0] * 6, [1e16] * 6, [-1e16] * 6], random.Random(0))  # left-to-right sum 0.0
    @settings(max_examples=300, deadline=None)
    def test_mean_is_rounded_exact_sum_and_order_free(self, rows, rnd):
        # the exact sum rounded once (math.fsum), then one rounding of / n
        n = len(rows)
        bucket = vector_bucket(rows)
        permuted = vector_bucket(rnd.sample(rows, n))
        for s in SCALES:
            exact = sum(map(Fraction, bucket.components(s)))
            got = bucket.mean(s)
            assert got.hex() == (float(exact) / n).hex()
            assert abs(Fraction(got) - exact / n) <= 2 * Fraction(math.ulp(got))
            assert permuted.mean(s).hex() == got.hex()

    @pytest.mark.parametrize("vectors", [
        [[1, 2, 3], [4, 5, 6]],
        [list(range(12))],
        [[0.0] * 7],
        [[0.0] * 6, [0.0] * 5],
    ])
    def test_vector_without_six_components_rejected(self, vectors):
        rows = [ScoredRecord(f"r{i}", 2010, tuple(v), 1) for i, v in enumerate(vectors)]
        with pytest.raises(ValueError, match="^every vector needs 6 components$"):
            bucket_scores(rows)

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from moodtrends.lexicon import SCALES, MoodScale, compile_lexicon, load_lexicon
from moodtrends.scoring import (ScoredRecord, bucket_scores, match_counts,
                                score_corpus, score_record)
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
        # of the bucket's vectors
        scored = score_counts((0, 0, 0, 0, 0, 0), singles_matcher)
        assert scored.match_count == 0
        bucket = bucket_scores([scored])[scored.delivery_year]
        assert bucket.vectors.shape == (0, 6)
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
        buckets = score_corpus(records, matcher)
        assert set(buckets) == {2010}
        bucket = buckets[2010]
        assert bucket.vectors.shape == (1, 6)
        assert bucket.vectors.flags.c_contiguous
        assert bucket.zero_match_count == 1
        assert norm(bucket.vectors[0]) == pytest.approx(1.0)

    def test_empty_input(self, matcher):
        assert score_corpus([], matcher) == {}

    def test_partition_accounting(self, matcher):
        bodies = ["daunted", "nothing here", "so angry and so tired",
                  "table chair", "worrying all day"]
        records = [make_record(b, rec_id=f"r{i}", delivery=f"20{10 + i % 2}-01-0{i + 1}")
                   for i, b in enumerate(bodies)]
        buckets = score_corpus(records, matcher)
        total = sum(len(b.vectors) for b in buckets.values())
        zeros = sum(b.zero_match_count for b in buckets.values())
        assert total + zeros == len(records)

    def test_permutation_invariance_as_multisets(self, matcher):
        records = [make_record(b, rec_id=f"r{i}", delivery="2012-01-01")
                   for i, b in enumerate(["angry", "daunted", "tired", "angry sad"])]
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        b1 = score_corpus(records, matcher)[2012]
        b2 = score_corpus(shuffled, matcher)[2012]
        assert sorted(b1.vectors.tolist()) == sorted(b2.vectors.tolist())
        assert b1.zero_match_count == b2.zero_match_count

    def test_score_record_audit_fields(self, matcher):
        rec = make_record("daunted and angry", delivery="2015-02-03")
        scored = score_record(rec, matcher)
        assert scored.id == rec.id
        assert scored.delivery_year == 2015
        assert scored.match_count == 2
        assert scored.components[SCALES.index(MoodScale.DEPRESSION)] == pytest.approx(
            1 / math.sqrt(2))

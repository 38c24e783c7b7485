"""Stem-sequence scanner that visits every position, and the scorer that
folds its counts into floats.

``match_counts`` is the ``while`` loop ``moodtrends.scoring.match_counts``
used before it learned to skip positions; kept here as the reference for
that scan. ``score_record`` is the scorer before its scale sums became ints:
it stems every token with ``porter_stem`` and sums, squares and divides in
floats.
"""

from __future__ import annotations

import math

from moodtrends.lexicon import SCALES
from moodtrends.scoring import ScoredRecord
from moodtrends.textproc import porter_stem


def match_counts(stems, matcher) -> list[int]:
    counts = [0] * len(matcher.main_terms)
    singles = matcher.singles
    phrases = matcher.phrases
    heads = matcher.phrase_heads
    max_len = matcher.max_phrase_len
    n = len(stems)
    i = 0
    while i < n:
        stem = stems[i]
        if stem in heads:
            matched = False
            for length in range(min(max_len, n - i), 1, -1):
                idx = phrases.get(tuple(stems[i:i + length]))
                if idx is not None:
                    counts[idx] += 1
                    i += length
                    matched = True
                    break
            if matched:
                continue
        idx = singles.get(stem)
        if idx is not None:
            counts[idx] += 1
        i += 1
    return counts


def score_record(rec, matcher, tokens) -> ScoredRecord:
    counts = match_counts([porter_stem(t) for t in tokens], matcher)
    components = [0.0] * len(SCALES)
    for main_idx, c in enumerate(counts):
        if c:
            components[matcher.scale_index[main_idx]] += c
    norm = math.sqrt(sum(c * c for c in components)) or 1.0
    return ScoredRecord(rec.id, rec.delivery_year,
                        tuple(c / norm for c in components), sum(counts))

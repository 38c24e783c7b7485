"""Stem-sequence scanner that visits every position.

The ``while`` loop ``moodtrends.scoring.match_counts`` used before it learned
to visit only the positions whose stem can start a match; kept here as the
reference for that scan.
"""

from __future__ import annotations


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

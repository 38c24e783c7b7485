"""Document scoring: tokens -> stems -> longest-match-first main-term counts
-> unit-normalized six-vector, and per-delivery-year buckets holding each
year's matched rows."""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import mul, truediv
from typing import Iterable, NamedTuple, Sequence

from .corpus import EmailRecord
from .lexicon import SCALE_INDEX, SCALES, CompiledMatcher, MoodScale
from .textproc import tokenize


def match_counts(stems: Sequence[str], matcher: CompiledMatcher) -> list[int]:
    """Count lexicon matches per main term (indexed like matcher.main_terms).

    The stem sequence is scanned left to right; at each position the longest
    matching stem sequence wins and is consumed whole (matches never
    overlap), otherwise the scan advances one stem. Only positions whose
    stem is non-empty are visited: the stem memo maps a token that can
    reach no lexicon stem to ``""``, which is in no table.
    """
    counts = [0] * len(matcher.main_terms)
    singles = matcher.singles
    phrases = matcher.phrases
    heads = matcher.phrase_heads
    max_len = matcher.max_phrase_len
    n = len(stems)
    end = 0  # positions before end were consumed by a phrase
    for i in compress(range(n), stems):
        if i < end:
            continue
        stem = stems[i]
        idx = None
        if stem in heads:
            for length in range(min(max_len, n - i), 1, -1):
                idx = phrases.get(tuple(stems[i:i + length]))
                if idx is not None:
                    end = i + length
                    break
        if idx is None:
            idx = singles.get(stem)
        if idx is not None:
            counts[idx] += 1
    return counts


class ScoredRecord(NamedTuple):
    """Audit row for one document: its unit mood vector in scale order, or
    all zeros when no lexicon term matched (match_count == 0)."""

    id: str
    delivery_year: int
    components: tuple[float, ...]
    match_count: int


def score_record(rec: EmailRecord, matcher: CompiledMatcher,
                 tokens: Sequence[str] | None = None) -> ScoredRecord:
    """Match the body, sum main-term counts per scale (the scoring key) and
    scale the result to unit Euclidean length.

    tokens, when given, must equal ``tokenize(rec.body)``; that is not
    checked, so a caller that already tokenized the body (as the language
    filter does) passes its list instead of paying for a second pass."""
    if tokens is None:
        tokens = tokenize(rec.body)
    stems = list(map(matcher.stem_memo.__getitem__, tokens))
    counts = match_counts(stems, matcher)
    # int scale sums, so each float below is the one a float fold of them gives
    sums = [0] * len(SCALES)
    for main_idx in compress(range(len(counts)), counts):
        sums[matcher.scale_index[main_idx]] += counts[main_idx]
    # a zero-match row has norm 0; dividing by 1.0 keeps it all 0.0
    norm = math.sqrt(sum(map(mul, sums, sums))) or 1.0
    return ScoredRecord(rec.id, rec.delivery_year,
                        tuple(map(truediv, sums, repeat(norm, len(SCALES)))), sum(sums))


class YearBucket(NamedTuple):
    """The matched rows of one delivery year in input order, each with six
    float components, plus the number of its documents with no lexicon hit.
    Fields are stored as given; `bucket_scores` checks the component count."""

    rows: tuple[ScoredRecord, ...] = ()
    zero_match_count: int = 0

    def components(self, scale: MoodScale) -> tuple[float, ...]:
        index = SCALE_INDEX[scale]
        return tuple([row.components[index] for row in self.rows])

    def mean(self, scale: MoodScale) -> float:
        """math.fsum of one scale's components over the row count, in any row order; needs rows."""
        return math.fsum(self.components(scale)) / len(self.rows)


def bucket_scores(rows: Iterable[ScoredRecord]) -> dict[int, YearBucket]:
    """Group scored rows by delivery year, each kept row filed as given, its
    components not converted. Zero-match rows are counted per bucket but not
    kept; a row without six components is a ValueError."""
    kept: dict[int, list[ScoredRecord]] = {}
    zeros: dict[int, int] = {}
    for row in rows:
        _, year, components, match_count = row
        year_rows = kept.setdefault(year, [])
        if match_count == 0:
            zeros[year] = zeros.get(year, 0) + 1
        elif len(components) != len(SCALES):
            raise ValueError(f"every vector needs {len(SCALES)} components")
        else:
            year_rows.append(row)
    return {year: YearBucket(tuple(year_rows), zeros.get(year, 0))
            for year, year_rows in kept.items()}

"""Document scoring: tokens -> stems -> longest-match-first main-term counts
-> unit-normalized six-vector, and per-delivery-year buckets holding those
vectors as one (n, 6) array per year."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import EmailRecord
from .lexicon import SCALE_INDEX, SCALES, CompiledMatcher, MoodScale
from .textproc import porter_stem, tokenize


def match_counts(stems: Sequence[str], matcher: CompiledMatcher) -> list[int]:
    """Count lexicon matches per main term (indexed like matcher.main_terms).

    The stem sequence is scanned left to right; at each position the longest
    matching stem sequence wins and is consumed whole (matches never
    overlap), otherwise the scan advances one stem.
    """
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


@dataclass(frozen=True)
class ScoredRecord:
    """Audit row for one document: its unit mood vector in scale order, or
    all zeros when no lexicon term matched (match_count == 0)."""

    id: str
    delivery_year: int
    components: tuple[float, ...]
    match_count: int


def score_record(rec: EmailRecord, matcher: CompiledMatcher) -> ScoredRecord:
    """Match the body, sum main-term counts per scale (the scoring key) and
    scale the result to unit Euclidean length."""
    counts = match_counts([porter_stem(t) for t in tokenize(rec.body)], matcher)
    components = [0.0] * len(SCALES)
    for main_idx, c in enumerate(counts):
        if c:
            components[matcher.scale_index[main_idx]] += c
    # a zero-match row has norm 0; dividing by 1.0 keeps it all 0.0
    norm = math.sqrt(sum(c * c for c in components)) or 1.0
    return ScoredRecord(rec.id, rec.delivery_year,
                        tuple(c / norm for c in components), sum(counts))


@dataclass
class YearBucket:
    """The unit vectors of one delivery year as a C-order (n, 6) float64
    array, plus the number of that year's documents with no lexicon hit."""

    vectors: np.ndarray = ()
    zero_match_count: int = 0

    def __post_init__(self) -> None:
        self.vectors = np.ascontiguousarray(
            self.vectors, dtype=np.float64).reshape(-1, len(SCALES))

    def components(self, scale: MoodScale) -> np.ndarray:
        return self.vectors[:, SCALE_INDEX[scale]]

    def mean_vector(self) -> tuple[float, ...] | None:
        # column means of a C-order array accumulate row by row, the same
        # sequential sums a Python loop gives, so outputs stay bit-stable
        if not len(self.vectors):
            return None
        return tuple(self.vectors.mean(axis=0).tolist())


def bucket_scores(rows: Iterable[ScoredRecord]) -> dict[int, YearBucket]:
    """Group scored rows by delivery year.

    Zero-match rows are counted per bucket but contribute no vector.
    """
    vectors: dict[int, list[tuple[float, ...]]] = {}
    zeros: dict[int, int] = {}
    for row in rows:
        year = row.delivery_year
        year_vectors = vectors.setdefault(year, [])
        if row.match_count == 0:
            zeros[year] = zeros.get(year, 0) + 1
        else:
            year_vectors.append(row.components)
    return {year: YearBucket(vecs, zeros.get(year, 0))
            for year, vecs in vectors.items()}


def score_corpus(records: Iterable[EmailRecord],
                 matcher: CompiledMatcher) -> dict[int, YearBucket]:
    """Score every record into the bucket of its delivery year."""
    return bucket_scores(score_record(rec, matcher) for rec in records)

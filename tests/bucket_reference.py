"""Year bucketing in the vector form ``moodtrends.scoring`` used before a
bucket held its scored rows.

``bucket_scores`` keeps, per delivery year, each matched row's components
as a tuple of six floats and counts the zero-match rows; ``components``
reads one scale of those vectors, and the row form must equal it bit for
bit. ``mean`` is the exact sum of that scale (``Fraction``), rounded once
to a float, then divided by the row count: the value ``math.fsum`` then
``/ n`` gives, whatever the row order.
"""

from __future__ import annotations

from fractions import Fraction

from moodtrends.lexicon import SCALE_INDEX


def bucket_scores(rows) -> dict[int, tuple[list[tuple[float, ...]], int]]:
    buckets: dict[int, tuple[list[tuple[float, ...]], int]] = {}
    for row in rows:
        vectors, zeros = buckets.get(row.delivery_year, ([], 0))
        if row.match_count == 0:
            zeros += 1
        else:
            vectors.append(tuple(float(c) for c in row.components))
        buckets[row.delivery_year] = (vectors, zeros)
    return buckets


def components(vectors, scale) -> list[float]:
    return [v[SCALE_INDEX[scale]] for v in vectors]


def mean(vectors, scale) -> float:
    return float(sum(map(Fraction, components(vectors, scale)))) / len(vectors)

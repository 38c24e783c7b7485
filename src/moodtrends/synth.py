"""Seeded synthetic-corpus generator with plantable per-dimension trends.

Bodies are built from lexicon terms of the planted scales (one scored match
per sampled term, phrases kept contiguous) separated by neutral filler words
whose stems never appear in the lexicon, so expected match counts equal the
planted intensities exactly; a term is planted only if the compiled lexicon
scores it for its own scale.
"""

from __future__ import annotations

import datetime as dt
import math
import random
from typing import Callable, NamedTuple, Sequence

from .config import coerce
from .corpus import EmailRecord, load_word_list
from .lexicon import CompiledMatcher, MoodLexicon, MoodScale, compile_lexicon
from .textproc import porter_stem, tokenize


class TrendSpec(NamedTuple):
    """Planted intensity profile for one scale over the year index."""

    dimension: MoodScale
    profile: Callable[[int], float]
    noise_sd: float = 0.0


def _check_noise_sd(noise_sd: float) -> float:
    if not math.isfinite(noise_sd):
        raise ValueError(f"noise_sd must be finite, got {noise_sd}")
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
    return noise_sd


# profile name -> (accepted argument counts, intensity at year index i)
_PROFILES: dict[str, tuple[tuple[int, ...], Callable[..., float]]] = {
    "constant": ((1,), lambda i, level: level),
    "linear": ((1, 2), lambda i, slope, intercept=0.0: intercept + slope * i),
    "quadratic": ((3,), lambda i, a, b, c: a + b * i + c * i * i),
    "step": ((3,), lambda i, low, high, at_index: high if i >= int(at_index) else low),
}


def make_trend_spec(dimension: MoodScale, profile_expr: str,
                    noise_sd: float = 0.0) -> TrendSpec:
    """Build a TrendSpec from a profile expression such as ``step(1, 6, 5)``,
    ``constant(3)``, ``linear(0.5)`` or ``quadratic(1, 0.2, -0.01)``."""
    return TrendSpec(dimension=dimension, profile=parse_profile(profile_expr),
                     noise_sd=_check_noise_sd(noise_sd))


def _spec_scale(key: str) -> MoodScale:
    """The scale named after the dot of a ``trend.`` or ``noise_sd.`` key."""
    try:
        return MoodScale(key.split(".", 1)[1])
    except ValueError:
        raise ValueError(f"unknown scale in {key!r}") from None


# every plain synth spec key with its value type, as config.KEY_TYPES
_SPEC_KEY_TYPES: dict[str, type] = {"years": str, "emails_per_year": int,
                                    "origin_year": int, "seed": int, "noise_sd": float}


def parse_synth_spec(pairs: dict[str, str]) -> dict:
    """generate_corpus keyword arguments, all but the lexicon, from the
    ``key = value`` pairs of a synth spec file. Raises ValueError on an
    unknown key or scale, a bad value, a spec without a years line or
    without trend lines, or a noise_sd.<scale> line for an unplanted scale."""
    trend_specs: dict[MoodScale, str] = {}
    noise_by_scale: dict[MoodScale, float] = {}
    plain: dict = {}
    for key, value in pairs.items():
        if key.startswith("trend."):
            trend_specs[_spec_scale(key)] = value
        elif key.startswith("noise_sd."):
            noise_by_scale[_spec_scale(key)] = coerce(key, value, float)
        elif key in _SPEC_KEY_TYPES:
            plain[key] = coerce(key, value, _SPEC_KEY_TYPES[key])
        else:
            raise ValueError(f"unknown synth spec key {key!r}")
    if "years" not in plain:
        raise ValueError("synth spec needs a years = MIN-MAX line")
    lo, sep, hi = plain["years"].partition("-")
    try:
        year_lo, year_hi = int(lo), int(hi) if sep else int(lo)
    except ValueError:
        raise ValueError(f"bad years value {plain['years']!r}") from None
    if year_hi < year_lo:
        raise ValueError(f"empty year range {plain['years']!r}")
    if year_lo < dt.MINYEAR or year_hi > dt.MAXYEAR:
        raise ValueError(f"years must lie in {dt.MINYEAR}-{dt.MAXYEAR}, "
                         f"got {plain['years']!r}")
    origin_year = plain.get("origin_year")
    if origin_year is not None and not dt.MINYEAR <= origin_year <= dt.MAXYEAR:
        raise ValueError(f"origin_year must lie in {dt.MINYEAR}-{dt.MAXYEAR}, "
                         f"got {pairs['origin_year']!r}")
    if not trend_specs:
        raise ValueError("synth spec defines no trend.<scale> lines")
    for scale in noise_by_scale:
        if scale not in trend_specs:
            raise ValueError(f"noise_sd.{scale} has no trend.{scale} line")
    default_noise = _check_noise_sd(plain.get("noise_sd", 0.0))
    return {
        "specs": [make_trend_spec(scale, expr,
                                  noise_sd=noise_by_scale.get(scale, default_noise))
                  for scale, expr in trend_specs.items()],
        "years": range(year_lo, year_hi + 1),
        "emails_per_year": plain.get("emails_per_year", 10),
        "origin_year": origin_year,
        "seed": plain.get("seed", 0),
    }


def parse_profile(expr: str) -> Callable[[int], float]:
    text = expr.strip().lower()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"bad profile expression {expr!r}")
    name, _, arg_text = text[:-1].partition("(")
    name = name.strip()
    # "f()" has no arguments; an empty one between commas is an error
    args = arg_text.split(",") if arg_text.strip() else []
    try:
        values = [float(a) for a in args]
        if not all(map(math.isfinite, values)):
            raise ValueError
    except ValueError:
        raise ValueError(f"bad profile arguments in {expr!r}") from None
    if name not in _PROFILES:
        raise ValueError(f"unknown profile {expr!r}")
    counts, intensity = _PROFILES[name]
    if len(values) not in counts:
        raise ValueError(f"{name} takes {' or '.join(map(str, counts))} argument"
                         f"{'' if counts == (1,) else 's'}, got {len(values)} in {expr!r}")
    return lambda i: intensity(i, *values)


# Every filler slot pairs one of these with a neutral noun so generated
# bodies always clear the pipeline's function-word-ratio language filter.
_FUNCTION_FILLERS = (
    "my", "your", "our", "was", "and", "that", "this", "with", "from",
    "when", "will", "would", "could", "should", "because", "about",
    "after", "before", "very", "also",
)


def _scale_terms(lexicon: MoodLexicon, matcher: CompiledMatcher) -> dict[MoodScale, list[str]]:
    # the main terms and phrases whose stem sequence the matcher credits to a
    # main term of the entry's own scale; porter_stem is warm from compiling
    by_scale: dict[MoodScale, list[str]] = {scale: [] for scale in MoodScale}
    for entry, scale_idx in zip(lexicon.entries, matcher.scale_index):
        for term in (entry.main_term, *entry.extended):
            seq = tuple(map(porter_stem, tokenize(term)))
            owner = matcher.singles[seq[0]] if len(seq) == 1 else matcher.phrases[seq]
            if matcher.scale_index[owner] == scale_idx:
                by_scale[entry.scale].append(term)
    return by_scale


def _safe_fillers(used: frozenset[str], fillers: Sequence[str]) -> list[str]:
    # a filler is safe when none of its stems is a stem of any lexicon term
    # or phrase, so no phrase can span across it and no single ever matches it
    safe = [w for w in fillers
            if all(porter_stem(t) not in used for t in tokenize(w))]
    if not safe:
        raise ValueError("no filler word survives the lexicon stem filter")
    return safe


# the most terms one scale may plant in one letter (C7 plants 10), so a
# huge or infinite intensity is a spec error, not a hang or a traceback
MAX_TERMS_PER_SCALE = 10_000
# the most letters one corpus may hold, about 100x the paper's 10,741; every
# record is built in memory before any is written
MAX_SYNTH_RECORDS = 1_000_000


def generate_corpus(specs: Sequence[TrendSpec], years: Sequence[int],
                    emails_per_year: int, lexicon: MoodLexicon, seed: int,
                    origin_year: int | None = None) -> list[EmailRecord]:
    """Emit a fully deterministic corpus with the planted per-scale trends.

    For each (year, email) a per-scale target intensity profile(i) +
    gauss(0, noise_sd) is drawn, clamped at zero and rounded to a term
    count; that many terms are sampled from the scale's terms that the
    compiled lexicon scores for it (a scale with none raises ValueError).
    A count that is not finite or exceeds MAX_TERMS_PER_SCALE, or more than
    MAX_SYNTH_RECORDS letters in all, raises ValueError. Documents are
    composed in origin_year and delivered in the bucket year.

    Each letter draws from ``random.Random(f"{seed}:{year}:{email_idx}")``.
    Every draw from range(n), a term pick, a shuffle swap or a filler word,
    is r = getrandbits(k) with k = n.bit_length(), drawn again while
    r >= n: the rule of CPython's ``Random.choice`` and ``Random.shuffle``,
    so the same arguments give the same records on every supported Python.
    Repeated years raise ValueError.
    """
    if emails_per_year < 1:
        raise ValueError("emails_per_year must be >= 1")
    if len(years) * emails_per_year > MAX_SYNTH_RECORDS:
        raise ValueError(f"years x emails_per_year = {len(years)} x {emails_per_year} "
                         f"= {len(years) * emails_per_year} letters; the ceiling is "
                         f"{MAX_SYNTH_RECORDS} per corpus")
    years = sorted(years)
    if not years:
        raise ValueError("empty year range")
    repeated = [a for a, b in zip(years, years[1:]) if a == b]
    if repeated:
        raise ValueError(f"year {repeated[0]} is repeated")
    if origin_year is None:
        origin_year = years[0]
    if origin_year > years[0]:
        raise ValueError("origin_year must not exceed the first bucket year")
    matcher = compile_lexicon(lexicon)
    terms_by_scale = _scale_terms(lexicon, matcher)
    dims = [spec.dimension for spec in specs]
    for i, dim in enumerate(dims):
        if not terms_by_scale[dim]:
            raise ValueError(f"no lexicon term scores for scale {dim}")
        if dim in dims[:i]:
            raise ValueError(f"duplicate trend spec for {dim}")
    nouns = _safe_fillers(matcher.stem_memo.stems, load_word_list("filler_words"))
    function_fillers = _safe_fillers(matcher.stem_memo.stems, _FUNCTION_FILLERS)

    n_function, n_nouns = len(function_fillers), len(nouns)
    k_function, k_nouns = n_function.bit_length(), n_nouns.bit_length()
    rng = random.Random()
    bits = rng.getrandbits
    compose = dt.date(origin_year, 1, 1)
    records: list[EmailRecord] = []
    for year_idx, year in enumerate(years):
        delivery = dt.date(year, 7, 1)
        planted = [(spec.dimension, spec.profile(year_idx), spec.noise_sd,
                    terms_by_scale[spec.dimension]) for spec in specs]
        for email_idx in range(emails_per_year):
            rng.seed(f"{seed}:{year}:{email_idx}")
            chunks: list[str] = []
            pick = chunks.append
            for scale, intensity, noise_sd, terms in planted:
                if noise_sd > 0:
                    intensity += rng.gauss(0.0, noise_sd)
                if not math.isfinite(intensity) or (
                        count := round(intensity)) > MAX_TERMS_PER_SCALE:
                    raise ValueError(
                        f"trend.{scale} plants {intensity:g} terms in a {year} letter; "
                        f"the ceiling is {MAX_TERMS_PER_SCALE} per scale per letter")
                n = len(terms)
                k = n.bit_length()
                for _ in range(count):
                    r = bits(k)
                    while r >= n:
                        r = bits(k)
                    pick(terms[r])
            # Fisher-Yates from the end, as Random.shuffle: j from range(i + 1)
            for i in range(len(chunks) - 1, 0, -1):
                k = (i + 1).bit_length()
                j = bits(k)
                while j > i:
                    j = bits(k)
                chunks[i], chunks[j] = chunks[j], chunks[i]
            # the body is filler slots with the chunks between them, as
            # words: function noun chunk function noun ... function noun.
            # A function word per slot makes every body clear the
            # function-word-ratio language filter. The slots draw in body
            # order, after the shuffle.
            words = [""] * (3 * len(chunks) + 2)
            words[2::3] = chunks
            for at in range(0, len(words), 3):
                f = bits(k_function)
                while f >= n_function:
                    f = bits(k_function)
                g = bits(k_nouns)
                while g >= n_nouns:
                    g = bits(k_nouns)
                words[at] = function_fillers[f]
                words[at + 1] = nouns[g]
            records.append(EmailRecord(
                id=f"synth-{year}-{email_idx:04d}",
                compose_date=compose,
                delivery_date=delivery,
                body=" ".join(words),
            ))
    return records

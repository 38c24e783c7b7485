"""Synthetic-corpus generator that draws through ``Random.choice`` and
``Random.shuffle``.

The loop ``moodtrends.synth.generate_corpus`` ran before it wrote its draws
on ``getrandbits``; kept here as the reference for those draws. It takes the
checked inputs only: no ceiling on the planted count, no argument checks.
"""

from __future__ import annotations

import datetime as dt
import random

from moodtrends.corpus import EmailRecord, load_word_list
from moodtrends.lexicon import compile_lexicon
from moodtrends.synth import _FUNCTION_FILLERS, _safe_fillers, _scale_terms
from moodtrends.textproc import porter_stem, tokenize


def generate_corpus(specs, years, emails_per_year, lexicon, seed,
                    origin_year=None) -> list[EmailRecord]:
    years = sorted(years)
    if origin_year is None:
        origin_year = years[0]
    terms_by_scale = _scale_terms(lexicon, compile_lexicon(lexicon))
    # every stem of every main term and phrase, stemmed again here so that
    # the oracle checks the set compile_lexicon gives the stem memo
    used = {porter_stem(t) for e in lexicon.entries
            for term in (e.main_term, *e.extended) for t in tokenize(term)}
    nouns = _safe_fillers(used, load_word_list("filler_words"))
    function_fillers = _safe_fillers(used, _FUNCTION_FILLERS)

    compose = dt.date(origin_year, 1, 1)
    records: list[EmailRecord] = []
    for year_idx, year in enumerate(years):
        delivery = dt.date(year, 7, 1)
        for email_idx in range(emails_per_year):
            rng = random.Random(f"{seed}:{year}:{email_idx}")
            chunks: list[str] = []
            for spec in specs:
                intensity = spec.profile(year_idx)
                if spec.noise_sd > 0:
                    intensity += rng.gauss(0.0, spec.noise_sd)
                count = max(0, round(intensity))
                terms = terms_by_scale[spec.dimension]
                for _ in range(count):
                    chunks.append(rng.choice(terms))
            rng.shuffle(chunks)
            words = [f"{rng.choice(function_fillers)} {rng.choice(nouns)}"]
            for chunk in chunks:
                words.append(chunk)
                words.append(f"{rng.choice(function_fillers)} {rng.choice(nouns)}")
            body = " ".join(words)
            records.append(EmailRecord(
                id=f"synth-{year}-{email_idx:04d}",
                compose_date=compose,
                delivery_date=delivery,
                body=body,
            ))
    return records

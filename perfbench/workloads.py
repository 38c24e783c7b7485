"""Seeded input generators for the three benchmark workloads.

Each generator writes one TSV corpus and returns an ``Inputs`` record of what
it planted, so the output checks know the exact expected counts. The same
seed always gives the same bytes. The program under test only ever sees the
written corpus file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from moodtrends import SCALES, generate_corpus, load_default_lexicon, make_trend_spec
from moodtrends.lexicon import MoodScale

# rejection codes of the TSV parser (the JSONL-only invalid-json code
# cannot arise from a TSV corpus)
REJECT_CODES = ("unknown-character-encoding", "malformed-record",
                "invalid-date", "delivery-precedes-compose")


@dataclass
class Inputs:
    """What a generator wrote, and what the pipeline must find in it."""

    corpus: Path
    docs: int                 # lines that parse into records
    non_english: int          # records built with no function words at all
    years: int                # distinct delivery years
    rejects: dict[str, int] = field(default_factory=dict)  # code -> lines

    @property
    def kept(self) -> int:
        return self.docs - self.non_english

    @property
    def rejected_lines(self) -> int:
        return sum(self.rejects.values())

    @property
    def non_blank_lines(self) -> int:
        return self.docs + self.rejected_lines


def _escape(body: str) -> str:
    return (body.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r"))


def _line(rec_id: str, compose: str, delivery: str, body: str) -> bytes:
    return f"{rec_id}\t{compose}\t{delivery}\t{_escape(body)}".encode("utf-8")


def _tsv_lines(records) -> list[bytes]:
    return [_line(r.id, r.compose_date.isoformat(), r.delivery_date.isoformat(),
                  r.body) for r in records]


def _write(path: Path, lines: list[bytes]) -> None:
    path.write_bytes(b"\n".join(lines) + b"\n")


def synth_c7(seed: int, dest: Path, per_year: int = 40,
             generate: Callable = generate_corpus) -> Inputs:
    """The acceptance C7 shape: constant(10) on all six scales, 2006-2036."""
    specs = [make_trend_spec(s, "constant(10)") for s in SCALES]
    records = generate(specs, range(2006, 2037), per_year,
                       load_default_lexicon(), seed)
    _write(dest, _tsv_lines(records))
    return Inputs(corpus=dest, docs=len(records), non_english=0, years=31)


def ks_scores_60y(seed: int, dest: Path, per_year: int = 30,
                  generate: Callable = generate_corpus) -> Inputs:
    """Noisy planted trends on three scales over 60 years; the other three
    scales never score, and noise_sd 1.5 rounds many planted ones to zero,
    so the KS samples are heavily tied."""
    specs = [
        make_trend_spec(MoodScale.TENSION, "linear(0.03, 0.2)", noise_sd=1.5),
        make_trend_spec(MoodScale.DEPRESSION, "quadratic(1.5, -0.08, 0.0015)",
                        noise_sd=1.5),
        make_trend_spec(MoodScale.VIGOR, "step(0.5, 1.5, 30)", noise_sd=1.5),
    ]
    records = generate(specs, range(1960, 2020), per_year,
                       load_default_lexicon(), seed)
    _write(dest, _tsv_lines(records))
    return Inputs(corpus=dest, docs=len(records), non_english=0, years=60)


def _function_words() -> list[str]:
    text = (resources.files("moodtrends.data")
            .joinpath("function_words.txt").read_text("utf-8"))
    return sorted({w.strip() for w in text.splitlines()
                   if w.strip() and not w.startswith("#")})


def realvocab_letters(seed: int, dest: Path, voc_path: Path,
                      per_year: int = 50, non_english_per_year: int = 3,
                      rejects_per_code: int = 4,
                      generate: Callable = generate_corpus) -> Inputs:
    """Multi-paragraph letters over 15 delivery years.

    Each letter mixes function words (about 45%), filler drawn Zipf-weighted
    from the Porter vocabulary, and one mood sentence taken from a synth body
    (planted trends, phrases kept whole). Paragraph breaks make every body
    carry escaped newlines. Non-English letters use no function word at all,
    so the language filter drops exactly those. Malformed lines, one group
    per TSV rejection code, sit at seeded positions.
    """
    years = range(2010, 2025)
    specs = [make_trend_spec(s, "constant(1)", noise_sd=1.0) for s in SCALES
             if s not in (MoodScale.VIGOR, MoodScale.DEPRESSION)]
    specs += [make_trend_spec(MoodScale.VIGOR, "linear(0.15, 0.5)", noise_sd=1.0),
              make_trend_spec(MoodScale.DEPRESSION, "step(0.5, 2, 8)", noise_sd=1.0)]
    skeletons = generate(specs, years, per_year, load_default_lexicon(), seed)

    rng = np.random.default_rng(seed)
    fwords = _function_words()
    fset = set(fwords)
    voc = [w.strip() for w in voc_path.read_text("utf-8").splitlines() if w.strip()]
    voc = [voc[i] for i in rng.permutation(len(voc))]  # seeded Zipf ranks
    content = [w for w in voc if w.strip("'") not in fset]

    def zipf_sampler(words: list[str]) -> Callable[[int], list[str]]:
        cdf = np.cumsum(1.0 / np.arange(1, len(words) + 1))
        cdf /= cdf[-1]
        return lambda n: [words[i] for i in
                          np.searchsorted(cdf, rng.random(n), side="right")]

    any_word, content_word = zipf_sampler(voc), zipf_sampler(content)

    def sentences(words: list[str]) -> str:
        out, i = [], 0
        while i < len(words):
            k = int(rng.integers(6, 16))
            chunk = words[i:i + k]
            out.append(chunk[0].capitalize() + " " + " ".join(chunk[1:]) + ".")
            i += k
        return " ".join(out)

    def letter(mood: str | None) -> str:
        paragraphs = []
        for _ in range(int(rng.integers(3, 7))):
            n = int(rng.integers(30, 70))
            if mood is None:
                words = content_word(n)
            else:
                fw = rng.random(n) < 0.45
                fpicks = rng.integers(0, len(fwords), size=n)
                words = [fwords[f] if is_fw else w
                         for is_fw, w, f in zip(fw, any_word(n), fpicks)]
            paragraphs.append(sentences(words))
        if mood is not None:
            paragraphs[int(rng.integers(0, len(paragraphs)))] += " " + mood + "."
        return "\n\n".join(paragraphs)

    lines: list[bytes] = []
    for i, rec in enumerate(skeletons, start=1):
        lines.append(_line(rec.id, rec.compose_date.isoformat(),
                           rec.delivery_date.isoformat(), letter(rec.body)))
        if i % per_year == 0:  # after the last letter of each year
            year = rec.delivery_date.year
            lines += [_line(f"xx-{year}-{k}", f"{year - 4}-02-01", f"{year}-09-01",
                            letter(None)) for k in range(non_english_per_year)]
    docs = len(lines)

    bad = {
        "unknown-character-encoding": lambda k: b"enc-%d\t2009-01-01\t2012-01-01\tcaf\xe9 \xff" % k,
        "malformed-record": lambda k: (b"short-%d\t2009-01-01\t2012-01-01" % k if k % 2
                                       else b"\t2009-01-01\t2012-01-01\tno id here"),
        "invalid-date": lambda k: b"date-%d\t2009-02-30\t2012-01-01\tbad compose date" % k,
        "delivery-precedes-compose": lambda k: b"order-%d\t2015-01-01\t2012-01-01\ttoo early" % k,
    }
    pyrng = random.Random(seed)
    for code in REJECT_CODES:
        for k in range(rejects_per_code):
            lines.insert(pyrng.randrange(len(lines) + 1), bad[code](k))
    _write(dest, lines)
    return Inputs(corpus=dest, docs=docs,
                  non_english=non_english_per_year * len(years), years=len(years),
                  rejects={code: rejects_per_code for code in REJECT_CODES})

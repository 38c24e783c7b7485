"""Golden outputs: sha256 of every score/analyze file on one seeded corpus,
and of every ingest-dependent file on one hand-written corpus.

The corpus has planted trends with noise, so year means are not trivially
exact and a last-bit change in scoring, bucketing or summation shows up
(buckets.json prints full-precision means; trend_*.json prints the
full-precision fit).
The digests were recorded before the columnar-scores refactor; any change
to them is output drift between versions, not just between runs. The ingest
digests were recorded before the ingest rewrite (regex codec, one record
validator) in the same way; those of stats.json and buckets.json before the
output formats moved into cli.py. The trend_*.json digests were recorded
when the quadratic fit moved from LAPACK to plain-Python sums; those of
buckets.json and trend_{confusion,depression,tension,vigor}.json again when
every year mean, z-score sum and fit sum became math.fsum, the correctly
rounded sum, which does not follow line order (the anger and fatigue
scales, which no letter plants, kept theirs).
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import TESTS_DIR
from moodtrends.cli import EXIT_OK, main

LEXICON = TESTS_DIR.parent / "src" / "moodtrends" / "data" / "default_lexicon.txt"

GOLDEN_SPEC = """\
years = 2005-2016
emails_per_year = 25
origin_year = 2004
seed = 2024
noise_sd = 1.2
trend.tension = linear(0.2, 1)
trend.depression = step(1, 4, 6)
trend.vigor = quadratic(3, -0.5, 0.05)
trend.confusion = constant(1)
"""

GOLDEN = {
    "corpus.tsv":
        "2eea893cc481bb5f485cf901faf416dc6da1e2c400df0540c313c4351f5aa3e5",
    "buckets.json":
        "69c9ecafd291cf632035df2a1d8f7401d52bfdf9b182e981a74f9962c84009ea",
    "ks_anger.csv":
        "d1a424b869cf9dad2c2cfd4c9e7182a44cd1f307068b836e9db10171bbe78384",
    "ks_confusion.csv":
        "a5e3d0b019a0273c82f46d15ac2bd77c020d8adc7792959da79aacd62b5a2b30",
    "ks_depression.csv":
        "04cfa8548128c6579a800d9ec7bf2ac26d865a3f7e3924a35e70906cc7fb7d69",
    "ks_fatigue.csv":
        "5dca278c009acbe2e0fd75241afe4000d4e90e80e17ead346059ac5317960846",
    "ks_tension.csv":
        "533ff9d5edaeff36b67949e7a7699bf8290c3ab78cdda5772db8f048fbbacdc2",
    "ks_vigor.csv":
        "b6e9728f53176aa84c90e0a9964fa035f1e4250a9fc7e683ff0876038478844c",
    "scores.csv":
        "f2b4335280a7b5cc6cb236f6b66d14cfb3e41e00dbbb00fccc0adb1a1ac73c7d",
    "trend_anger.csv":
        "4f5a3ba689fa3a6ae7e6500ac034e178a81b2c6bef5c90a6a546db08fd5ad5eb",
    "trend_confusion.csv":
        "0c15b334c5cd132ac502a97f30ed8e2e6f4cbaa47996bca0bf3fb66611473467",
    "trend_depression.csv":
        "58018e881d4bec0a2072048c4d192efffc877adf5f3fb4f759199d657a14585f",
    "trend_fatigue.csv":
        "4f5a3ba689fa3a6ae7e6500ac034e178a81b2c6bef5c90a6a546db08fd5ad5eb",
    "trend_tension.csv":
        "319be355aa8ee3608c74bc9bee3944580a40ec82d13cd0f71d88c45ddba7d63a",
    "trend_vigor.csv":
        "921500e23db36f931a3347676a7c95c0714d018e4cf8f1a90111e105e1d68293",
    "trend_anger.json":
        "c87942fd655f2e742f4f032b326f738b801377989c607d401d46dd390db2aac7",
    "trend_confusion.json":
        "7ca2f96a250de550e229c619ede910a63dcd112b595570323885a363af2866fd",
    "trend_depression.json":
        "d42a2c3f20db863726c2ef00413fa29df3ff2ae06241a3c0de74c75e7c7d4b06",
    "trend_fatigue.json":
        "2846ef117b9567b2182db0db7251865ae8d9bae834cfc1583daf9874f4d84661",
    "trend_tension.json":
        "6bf273110cc15064a68715e40c22741a595022026ed0a145ebaec00488f99eb1",
    "trend_vigor.json":
        "4fba58a11e1eb0bc2d2259d8d6fe918f537e42e3e0d1126bb07c13ac532f8912",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    spec = root / "golden.spec"
    spec.write_text(GOLDEN_SPEC)
    corpus = root / "corpus.tsv"
    out = root / "out"
    assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == EXIT_OK
    assert main(["score", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                 "--output-dir", str(out)]) == EXIT_OK
    assert main(["analyze", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                 "--output-dir", str(out)]) == EXIT_OK
    digests = {"corpus.tsv": _sha(corpus)}
    for path in sorted(out.iterdir()):
        if path.name in ("scores.csv", "buckets.json") or (
                path.name.startswith("ks_") and path.suffix == ".csv") or (
                path.name.startswith("trend_") and path.suffix in (".csv", ".json")):
            digests[path.name] = _sha(path)
    return digests


def test_golden_file_set(golden_run):
    assert sorted(golden_run) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(golden_run, name):
    assert golden_run[name] == GOLDEN[name]


# The C7 shape in small: six constant(10) scales, so 60-chunk letters whose
# shuffles draw at every k from 1 to 6. The digest was recorded before the
# term picks and the shuffle were written as inline rejection loops.
DENSE_SPEC = """\
years = 2006-2009
emails_per_year = 20
seed = 7
""" + "".join(f"trend.{scale} = constant(10)\n" for scale in
              ("tension", "depression", "anger", "fatigue", "vigor", "confusion"))

DENSE_CORPUS_SHA = "d14034e6f771db47c7b36ee24a9ed2103430061c1eff2367c7a88b15d0ab45ae"


def test_dense_corpus_digest(tmp_path):
    spec = tmp_path / "dense.spec"
    spec.write_text(DENSE_SPEC)
    corpus = tmp_path / "corpus.tsv"
    assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == EXIT_OK
    assert _sha(corpus) == DENSE_CORPUS_SHA


# Bodies hold every escape the codec knows, an unknown escape (\q reads as q)
# and a trailing lone backslash; the tail of the file has one line per TSV
# rejection code, a blank line, a non-English letter and a short one.
INGEST_LINES = [
    b"e1\t2006-01-15\t2010-06-01\tDear me,\\nI hope you are not so anxious"
    b" and tense any more.\\tWe were sad\\r\\nand tired, and I was angry.",
    b"e2\t2006-02-01\t2010-09-30\tA back\\\\slash, a \\qunknown escape and"
    b" my cheerful, lively, energetic self at the end \\",
    b"  e3 \t2007-03-03\t2011-01-01\tI was so confused and worried that"
    b" the happy days would end.\\n\\nLove, me \\\\ you",
    b"e4\t2007-05-05\t2011-12-31\tder die das und aber nicht heute morgen wieder",
    b"e5\t2008-01-01\t2012-01-01\tshort note",
    b"e6\t2008-06-30\t2012-07-04\tToday I feel tense\\\\nervous and weary,"
    b" so weary of the \\\"news\\\" that I cannot sleep.",
    b"",
    b"bad-enc\t2006-01-01\t2010-01-01\t\xff\xfe broken",
    b"two\tfields",
    b" \t2006-01-01\t2010-01-01\tempty id",
    b"bad-date\t2006-13-01\t2010-01-01\tbody",
    b"order\t2012-01-01\t2010-01-01\tbody",
]

INGEST_GOLDEN = {
    "buckets.json":
        "64b59834a76f2aab779c4a39e418fae4923d4e120469ffb8142406deb10525cf",
    "histogram.csv":
        "2c738bbb46461cc427cbad2154d8c673a4e8741b4167eed83d04d444ac4f013a",
    "mean_lag.csv":
        "c6e9aa90366174a3cf9c5646c68c8a6e2e5735272f47fea282c8f29b3b17277b",
    "rejections.txt":
        "61ff0734c88710b09115d970c9c913b3064a9fb2b998241977117ac3e9455818",
    "scores.csv":
        "b75e6bd199d1db5436e4e416e1f915a5ce49945d96b9c1234fdedc7c9236f57f",
    "stats.json":
        "414450a6452d9a3a002d18212c14db030c85c8a235e0ad5abd00b453f0e963c7",
    "wordfreq.csv":
        "05715cc8c6a5bb513dcecb837c161156c412a7aab180dc2e677020c016f681b8",
}


@pytest.fixture(scope="module")
def ingest_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest")
    corpus = root / "letters.tsv"
    corpus.write_bytes(b"\n".join(INGEST_LINES) + b"\n")
    out = root / "out"
    assert main(["stats", "--corpus", str(corpus), "--top-n", "100",
                 "--output-dir", str(out)]) == EXIT_OK
    assert main(["score", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                 "--output-dir", str(out)]) == EXIT_OK
    return {name: _sha(out / name) for name in INGEST_GOLDEN}


@pytest.mark.parametrize("name", sorted(INGEST_GOLDEN))
def test_ingest_golden_digest(ingest_run, name):
    assert ingest_run[name] == INGEST_GOLDEN[name]


# Letters whose bodies hold non-ASCII text, so tokenize takes its second route
# (lower() and an ASCII replace) on them: accents, the Kelvin sign (U+212A,
# which lowercases to k), dotted capital I (U+0130), long s, sharp s, curly
# apostrophes and quotes, a no-break space, a dash and a ligature. The tail
# has a non-English letter and a short one, both non-ASCII. The digests were
# recorded before tokenize moved onto a byte table.
NON_ASCII_LINES = [
    "n1\t2006-01-15\t2010-06-01\tMy résumé says I was naïve and tense, so"
    " anxious and “sad” — don’t be angry with the café.",
    "n2\t2006-02-01\t2010-09-30\tThe \u212aelvin scale was cold; I felt weary,"
    " tired and lonely in \u0130stanbul, yet cheerful and lively\u00a0at the end.",
    "n3\t2007-03-03\t2011-01-01\tI was confused and worried ‘that’ the"
    " happy days would end in Straße, the lo\u017fs of my \ufb01ancé.",
    "n4\t2007-05-05\t2011-12-31\tÜber die Straße und aber nicht heute morgen wieder schön",
    "n5\t2008-01-01\t2012-01-01\tKüsse, \u212aatja",
    "n6\t2008-06-30\t2012-07-04\tToday I feel tense and nervous and furious,"
    " so weary of the «news» that I can’t sleep – énergie.",
]

NON_ASCII_GOLDEN = {
    "rejections.txt":
        "b2633333db016ee700262248d963088d550275047cf701db8282de68ed148501",
    "scores.csv":
        "b801d406b2fc89a9b1cc621f453aafb62ed020edae723fca69900b1b510bb3e8",
    "wordfreq.csv":
        "1ae0f9ec567137627849a0711f31929825bd0bebd4dcebaba8287fdbc45417f5",
}


@pytest.fixture(scope="module")
def non_ascii_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("non_ascii")
    corpus = root / "letters.tsv"
    corpus.write_bytes("".join(f"{line}\n" for line in NON_ASCII_LINES).encode("utf-8"))
    out = root / "out"
    assert main(["stats", "--corpus", str(corpus), "--top-n", "100",
                 "--output-dir", str(out)]) == EXIT_OK
    assert main(["score", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                 "--output-dir", str(out)]) == EXIT_OK
    return {name: _sha(out / name) for name in NON_ASCII_GOLDEN}


@pytest.mark.parametrize("name", sorted(NON_ASCII_GOLDEN))
def test_non_ascii_golden_digest(non_ascii_run, name):
    assert non_ascii_run[name] == NON_ASCII_GOLDEN[name]

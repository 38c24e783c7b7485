"""Golden outputs: sha256 of every score/analyze file on one seeded corpus.

The corpus has planted trends with noise, so year means are not trivially
exact and a last-bit change in scoring, bucketing or summation shows up
(buckets.json prints full-precision means). trend_*.json is left out: its
fit coefficients come from LAPACK and may differ in the last bit between
builds.
The digests were recorded before the columnar-scores refactor; any change
to them is output drift between versions, not just between runs.
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
        "05b472bd78a9f4783b6a48c0272a6535eff71ef2cf13b01e7415053af6e2f7f8",
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
                path.name.startswith(("ks_", "trend_")) and path.suffix == ".csv"):
            digests[path.name] = _sha(path)
    return digests


def test_golden_file_set(golden_run):
    assert sorted(golden_run) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(golden_run, name):
    assert golden_run[name] == GOLDEN[name]

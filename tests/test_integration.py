"""One messy corpus, end to end: ingestion counters, filtering, scoring,
analysis outputs and their mutual consistency."""

from __future__ import annotations

import ast
import csv
import json
import math
import re
from collections import Counter
from pathlib import Path

import moodtrends
from moodtrends.cli import EXIT_OK, main
from moodtrends.lexicon import SCALES

LEXICON_LINE = "--lexicon"
README = Path(__file__).resolve().parents[1] / "README.md"


def build_messy_corpus(tmp_path):
    lines = [
        # 2010 deliveries: one gloomy, one upbeat, one with a phrase match
        "m1\t2006-02-03\t2010-06-01\tI feel so hopeless and worthless about what is coming",
        "m2\t2006-02-04\t2010-07-01\tI am cheerful and full of pep about the future",
        "m3\t2006-02-05\t2010-08-01\tafter the project I just lost momentum and was put off",
        # 2015 deliveries: energetic pair
        "m4\t2006-03-01\t2015-06-01\tfeeling lively and energetic and I will be refreshed",
        "m5\t2006-03-02\t2015-07-01\tso vibrant and alert these days I hope it lasts",
        # zero-match but English
        "m6\t2006-03-03\t2015-08-01\tthe committee will review the plans for the library",
        # German: rejected by the language filter
        "m7\t2006-03-04\t2015-09-01\tder die das und aber nicht heute morgen wieder",
        # too short to judge: kept and flagged
        "m8\t2006-03-05\t2010-09-01\tangry now",
        # malformed: missing a field
        "m9\t2006-03-06\tno-body-here",
        # delivery precedes compose
        "m10\t2006-03-07\t2005-01-01\tbackwards",
    ]
    corpus = tmp_path / "messy.tsv"
    data = "\n".join(lines).encode() + b"\nm11\t2006-04-01\t2010-01-01\t\xff\xfebad\n"
    corpus.write_bytes(data)
    return corpus


def test_messy_corpus_full_chain(tmp_path):
    from test_cli import LEXICON
    corpus = build_messy_corpus(tmp_path)

    stats_out = tmp_path / "stats"
    assert main(["stats", "--corpus", str(corpus),
                 "--output-dir", str(stats_out)]) == EXIT_OK
    hist = {r["delivery_year"]: int(r["count"])
            for r in csv.DictReader(open(stats_out / "histogram.csv"))}
    # 8 parseable records (m9, m10, m11 rejected at parse time)
    assert hist == {"2010": 4, "2015": 4}
    lag = {r["origin_year"]: float(r["mean_lag_years"])
           for r in csv.DictReader(open(stats_out / "mean_lag.csv"))}
    assert set(lag) == {"2006"}
    assert 4.0 < lag["2006"] < 9.5
    stats_json = json.loads((stats_out / "stats.json").read_text())
    assert stats_json["total_records"] == 8
    assert stats_json["rejected_encoding"] == 1

    score_out = tmp_path / "score"
    assert main(["score", "--corpus", str(corpus), LEXICON_LINE, str(LEXICON),
                 "--output-dir", str(score_out)]) == EXIT_OK
    rows = {r["id"]: r for r in csv.DictReader(open(score_out / "scores.csv"))}
    # m7 filtered as non-English, m9/m10/m11 never parsed
    assert set(rows) == {"m1", "m2", "m3", "m4", "m5", "m6", "m8"}
    assert float(rows["m1"]["depression"]) == 1.0  # hopeless + worthless only
    assert float(rows["m3"]["depression"]) == 1.0  # two depression phrases
    assert rows["m3"]["match_count"] == "2"
    assert float(rows["m4"]["vigor"]) == 1.0
    assert rows["m6"]["match_count"] == "0"
    assert float(rows["m8"]["anger"]) == 1.0  # short but flagged-in

    norm = math.sqrt(sum(float(rows["m2"][d]) ** 2 for d in
                         ("tension", "depression", "anger", "vigor",
                          "fatigue", "confusion")))
    assert abs(norm - 1.0) < 1e-9

    rejections = (score_out / "rejections.txt").read_text()
    assert "delivery-precedes-compose" in rejections
    assert "unknown-character-encoding" in rejections
    assert "malformed-record" in rejections
    assert "non-english" in rejections
    assert "short-flagged" in rejections

    buckets = json.loads((score_out / "buckets.json").read_text())
    assert buckets["2010"]["count"] == 4
    assert buckets["2015"]["count"] == 2
    assert buckets["2015"]["zero_match_count"] == 1


def test_jsonl_corpus_through_stats(tmp_path):
    objs = [
        {"id": "j1", "compose_date": "2006-01-01", "delivery_date": "2009-01-01",
         "body": "dear future me I hope you are happy"},
        {"id": "j2", "compose_date": "2006-01-02", "delivery_date": "2009-06-01",
         "body": "dear friend this is a reminder about the garden"},
    ]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n".join(json.dumps(o) for o in objs) + "\n")
    out = tmp_path / "out"
    assert main(["stats", "--corpus", str(corpus), "--corpus-format", "jsonl",
                 "--output-dir", str(out)]) == EXIT_OK
    freq = list(csv.DictReader(open(out / "wordfreq.csv")))
    assert freq[0]["word"] == "dear"
    assert freq[0]["count"] == "2"


def test_readme_library_route(tmp_path, monkeypatch):
    """The python blocks under README's "Library use" run in order, tokenize
    each parsed letter once and give the yearly means score prints."""
    from moodtrends import corpus, scoring, textproc
    from test_cli import LEXICON
    spec = tmp_path / "small.spec"
    spec.write_text("years = 2007-2012\nemails_per_year = 8\nseed = 3\nnoise_sd = 0.5\n"
                    "trend.depression = linear(1, 0.5)\ntrend.vigor = constant(2)\n")
    letters = tmp_path / "corpus.tsv"
    assert main(["synth", "--spec", str(spec), "--out", str(letters)]) == EXIT_OK
    # a letter the language filter rejects and a short one it keeps
    with open(letters, "a") as fh:
        fh.write("de\t2006-01-01\t2010-01-01\tder die das und aber nicht heute morgen\n"
                 "short\t2006-01-01\t2011-01-01\tso tense\n")
    assert main(["score", "--corpus", str(letters), LEXICON_LINE, str(LEXICON),
                 "--output-dir", str(tmp_path / "score")]) == EXIT_OK
    printed = json.loads((tmp_path / "score" / "buckets.json").read_text())

    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert blocks
    bodies = Counter()

    def counting_tokenize(text):
        bodies[text] += 1
        return textproc.tokenize(text)

    monkeypatch.setattr(corpus, "tokenize", counting_tokenize)
    monkeypatch.setattr(scoring, "tokenize", counting_tokenize)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    records = namespace["records"]
    assert len(records) == 50
    assert bodies == Counter(rec.body for rec in records)
    buckets = namespace["buckets"]
    assert sorted(map(str, buckets)) == sorted(printed)
    for year, bucket in buckets.items():
        means = [repr(bucket.mean(s)) for s in SCALES] if bucket.rows else None
        assert means == printed[str(year)]["mean_vector"], year


def test_readme_library_use_lists_the_public_api():
    """README's "Library use" names the public API: the names its first
    python block imports plus those of its "The rest of the public API"
    sentence are exactly moodtrends.__all__, less __version__."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    first_block = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    imported = {alias.name for node in ast.walk(ast.parse(first_block))
                if isinstance(node, ast.ImportFrom) and node.module == "moodtrends"
                for alias in node.names}
    sentence = re.search(r"The rest of the public API[^.]*\.", " ".join(section.split()))[0]
    rest = set(re.findall(r"`(\w+)`", sentence))
    assert imported and rest
    assert imported | rest == set(moodtrends.__all__) - {"__version__"}

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import math
import os
import random
import re
import stat
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import make_record, run_python, vector_bucket
from moodtrends import stats
from moodtrends.cli import (EXIT_DATA, EXIT_OK, EXIT_USAGE, _read_scores_csv, _score_chain,
                            _write_scores_csv, main)
from moodtrends.config import PipelineConfig
from moodtrends.corpus import FORMATS, format_record_line, parse_corpus, parse_corpus_file
from moodtrends.lexicon import load_default_lexicon
from moodtrends.scoring import ScoredRecord, bucket_scores

STEP_SPEC = """\
years = 2007-2016
emails_per_year = 30
origin_year = 2006
seed = 42
noise_sd = 0.5
trend.depression = step(1, 6, 5)
trend.vigor = constant(3)
"""

LEXICON = Path(__file__).resolve().parents[1] / "src" / "moodtrends" / "data" / "default_lexicon.txt"


@pytest.fixture
def step_corpus(tmp_path):
    spec = tmp_path / "step.spec"
    spec.write_text(STEP_SPEC)
    out = tmp_path / "corpus.tsv"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    return out


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSynthCommand:
    def test_rerun_byte_identical(self, tmp_path, step_corpus):
        again = tmp_path / "again.tsv"
        spec = tmp_path / "step.spec"
        assert main(["synth", "--spec", str(spec), "--out", str(again)]) == EXIT_OK
        assert again.read_bytes() == step_corpus.read_bytes()

    def test_spec_seed_line_alone_seeds(self, tmp_path, capsys, step_corpus):
        spec = tmp_path / "seed7.spec"
        spec.write_text(STEP_SPEC.replace("seed = 42", "seed = 7"))
        other = tmp_path / "other.tsv"
        assert main(["synth", "--spec", str(spec), "--out", str(other)]) == EXIT_OK
        assert other.read_bytes() != step_corpus.read_bytes()
        capsys.readouterr()
        assert main(["synth", "--spec", str(spec), "--seed", "7",
                     "--out", str(tmp_path / "flag.tsv")]) == EXIT_USAGE
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert errors == ["error: unrecognized arguments: --seed 7"]

    def test_record_count(self, step_corpus):
        assert sum(1 for _ in open(step_corpus)) == 300

    def test_empty_year_range_is_error(self, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text(STEP_SPEC.replace("2007-2016", "2016-2007"))
        rc = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.tsv")])
        assert rc == EXIT_DATA

    def test_missing_spec_file(self, tmp_path):
        rc = main(["synth", "--spec", str(tmp_path / "nope.spec"),
                   "--out", str(tmp_path / "x.tsv")])
        assert rc == EXIT_DATA


class TestStatsCommand:
    def test_fixture_histogram(self, tmp_path):
        records = [
            make_record("dear dear hope", rec_id="a", delivery="2007-01-02"),
            make_record("dear hope love", rec_id="b", delivery="2007-05-02"),
            make_record("future plans", rec_id="c", delivery="2010-01-02"),
            make_record("hello world wide web", rec_id="d", delivery="2010-02-02"),
            make_record("one more note", rec_id="e", delivery="2010-03-02"),
            make_record("last words", rec_id="f", delivery="2036-03-02"),
        ]
        corpus = tmp_path / "six.tsv"
        corpus.write_text("\n".join(format_record_line(r) for r in records) + "\n")
        out = tmp_path / "out"
        assert main(["stats", "--corpus", str(corpus),
                     "--output-dir", str(out)]) == EXIT_OK
        rows = read_csv(out / "histogram.csv")
        assert {(r["delivery_year"], r["count"]) for r in rows} == {
            ("2007", "2"), ("2010", "3"), ("2036", "1")}
        freq = read_csv(out / "wordfreq.csv")
        assert freq[0]["rank"] == "1"
        assert freq[0]["word"] == "dear"
        assert freq[0]["count"] == "3"
        stats_json = json.loads((out / "stats.json").read_text())
        assert stats_json["total_records"] == 6

    def test_empty_corpus_warns_but_succeeds(self, tmp_path, capsys):
        corpus = tmp_path / "empty.tsv"
        corpus.write_text("")
        out = tmp_path / "out"
        assert main(["stats", "--corpus", str(corpus),
                     "--output-dir", str(out)]) == EXIT_OK
        assert "warning" in capsys.readouterr().err.lower()
        assert (out / "histogram.csv").read_text() == "delivery_year,count\n"

    def test_unreadable_corpus_path(self, tmp_path):
        rc = main(["stats", "--corpus", str(tmp_path / "missing.tsv"),
                   "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_DATA


class TestScoreCommand:
    def test_daunted_audit_row(self, tmp_path):
        records = [
            make_record("I was feeling daunted about it all", rec_id="hit",
                        delivery="2010-06-01"),
            make_record("the wooden table was in the kitchen by the window",
                        rec_id="miss", delivery="2010-06-01"),
        ]
        corpus = tmp_path / "c.tsv"
        corpus.write_text("\n".join(format_record_line(r) for r in records) + "\n")
        out = tmp_path / "out"
        assert main(["score", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(out)]) == EXIT_OK
        rows = {r["id"]: r for r in read_csv(out / "scores.csv")}
        assert float(rows["hit"]["depression"]) > 0
        assert rows["hit"]["match_count"] == "1"
        assert rows["miss"]["match_count"] == "0"
        buckets = json.loads((out / "buckets.json").read_text())
        assert buckets["2010"]["count"] == 1
        assert buckets["2010"]["zero_match_count"] == 1

    def test_invalid_lexicon_exits_2(self, tmp_path, step_corpus):
        bad = tmp_path / "bad_lexicon.txt"
        bad.write_text("angry | anger | mad\nangry | tension | cross\n")
        rc = main(["score", "--corpus", str(step_corpus), "--lexicon", str(bad),
                   "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_DATA

    def test_stem_collision_warning_on_stderr(self, tmp_path, step_corpus, capsys):
        colliding = tmp_path / "colliding_lexicon.txt"
        colliding.write_text(
            "tense | tension | cross\n"
            "sad | depression\n"
            "angry | anger | cross\n"
            "lively | vigor\n"
            "weary | fatigue\n"
            "dazed | confusion\n")
        rc = main(["score", "--corpus", str(step_corpus),
                   "--lexicon", str(colliding),
                   "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "lexicon-warning\tstem-collision\tangry\ttense\tcross\n" in err

    def test_synth_prints_the_stem_collision_warnings_score_prints(self, tmp_path, capsys):
        # tensing stems to tense's stem, which the earlier tension entry claims
        lexicon = tmp_path / "colliding_lexicon.txt"
        lexicon.write_text("tense | tension\ngloomy | depression\nangry | anger\n"
                           "calm | vigor | tensing\nweary | fatigue\npuzzled | confusion\n")
        spec = tmp_path / "vigor.spec"
        spec.write_text("years = 2010-2013\nemails_per_year = 10\nseed = 2\n"
                        "trend.vigor = linear(1, 1)\n")
        corpus = tmp_path / "c.tsv"
        assert main(["synth", "--spec", str(spec), "--lexicon", str(lexicon),
                     "--out", str(corpus)]) == EXIT_OK
        synth_err = capsys.readouterr().err
        assert "lexicon-warning\tstem-collision\tcalm\ttense\ttens\n" in synth_err
        assert main(["score", "--corpus", str(corpus), "--lexicon", str(lexicon),
                     "--output-dir", str(tmp_path / "o")]) == EXIT_OK
        assert capsys.readouterr().err == synth_err

    def test_zero_match_corpus_reports_totals(self, tmp_path, capsys):
        records = [make_record("the kitchen table and the garden window again",
                               rec_id=f"r{i}", delivery="2010-01-01")
                   for i in range(3)]
        corpus = tmp_path / "c.tsv"
        corpus.write_text("\n".join(format_record_line(r) for r in records) + "\n")
        out = tmp_path / "out"
        assert main(["score", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(out)]) == EXIT_OK
        assert "zero-match: 3" in capsys.readouterr().out
        buckets = json.loads((out / "buckets.json").read_text())
        assert buckets["2010"]["count"] == 0
        assert buckets["2010"]["zero_match_count"] == 3

    def test_year_window_limits_scored_rows(self, tmp_path, step_corpus, capsys):
        whole, window = tmp_path / "whole", tmp_path / "window"
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(whole)]) == EXIT_OK
        capsys.readouterr()
        # the window's ends are corpus years (2007-2016), so both are included
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--year-min", "2009", "--year-max", "2012",
                     "--output-dir", str(window)]) == EXIT_OK
        out = capsys.readouterr().out
        expected = [r for r in read_csv(whole / "scores.csv")
                    if 2009 <= int(r["delivery_year"]) <= 2012]
        rows = read_csv(window / "scores.csv")
        assert rows == expected
        assert {int(r["delivery_year"]) for r in rows} == {2009, 2010, 2011, 2012}
        assert f"scored: {len(rows)}  " in out
        assert sorted(json.loads((window / "buckets.json").read_text())) == \
            ["2009", "2010", "2011", "2012"]


@pytest.mark.parametrize("command", ["score", "analyze"])
@pytest.mark.parametrize("window", [[], ["--year-min", "2009", "--year-max", "2012"]])
def test_each_body_tokenized_once(tmp_path, monkeypatch, step_corpus, command, window):
    # the language filter hands its tokens to the scorer; a non-English and
    # a short letter ride along, one in the window and one outside it
    from moodtrends import corpus, scoring, textproc

    path = tmp_path / "mixed.tsv"
    path.write_bytes(step_corpus.read_bytes()
                     + b"de\t2006-01-01\t2010-01-01\tder die das und aber nicht heute morgen\n"
                     + b"short\t2006-01-01\t2016-01-01\tso tense\n")
    bodies = Counter()

    def counting_tokenize(text):
        bodies[text] += 1
        return textproc.tokenize(text)

    monkeypatch.setattr(corpus, "tokenize", counting_tokenize)
    monkeypatch.setattr(scoring, "tokenize", counting_tokenize)
    assert main([command, "--corpus", str(path), "--lexicon", str(LEXICON), *window,
                 "--output-dir", str(tmp_path / "out")]) == EXIT_OK
    records, _ = parse_corpus_file(path)
    assert len(records) == 302
    assert bodies == Counter(rec.body for rec in records)


class TestAnalyzeCommand:
    def test_planted_step_flags_in_csv(self, tmp_path, step_corpus):
        out = tmp_path / "an"
        assert main(["analyze", "--corpus", str(step_corpus),
                     "--lexicon", str(LEXICON), "--output-dir", str(out),
                     "--emit-svg"]) == EXIT_OK
        rows = read_csv(out / "ks_depression.csv")
        cross = [r for r in rows
                 if int(r["year_a"]) <= 2011 and int(r["year_b"]) >= 2012]
        assert len(cross) == 25
        assert all(r["flag"] == "significant" for r in cross)
        for dim in ("tension", "depression", "anger", "vigor", "fatigue",
                    "confusion"):
            assert (out / f"ks_{dim}.csv").exists()
            assert (out / f"trend_{dim}.csv").exists()

    def test_svg_well_formed(self, tmp_path, step_corpus):
        out = tmp_path / "an"
        main(["analyze", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
              "--output-dir", str(out), "--emit-svg"])
        for dim in ("depression", "vigor"):
            tree = ET.parse(out / f"trend_{dim}.svg")
            root = tree.getroot()
            assert root.tag.endswith("svg")
            ns = root.tag.split("}")[0] + "}"
            polylines = root.findall(f".//{ns}polyline")
            assert len(polylines) == 1  # one fitted curve per chart

    def test_deterministic_byte_identical_outputs(self, tmp_path, step_corpus):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["analyze", "--corpus", str(step_corpus),
                         "--lexicon", str(LEXICON),
                         "--output-dir", str(out)]) == EXIT_OK
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_stage_composability_scores_equals_inline(self, tmp_path, step_corpus):
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(step_corpus),
                     "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        from_scores = tmp_path / "an_scores"
        inline = tmp_path / "an_inline"
        assert main(["analyze", "--scores", str(score_out / "scores.csv"),
                     "--output-dir", str(from_scores)]) == EXIT_OK
        assert main(["analyze", "--corpus", str(step_corpus),
                     "--lexicon", str(LEXICON),
                     "--output-dir", str(inline)]) == EXIT_OK
        names = sorted(p.name for p in inline.iterdir())
        assert names == sorted(p.name for p in from_scores.iterdir())
        for name in names:
            assert (inline / name).read_bytes() == \
                (from_scores / name).read_bytes(), name

    def test_stage_composability_records_equal(self, tmp_path, step_corpus):
        # inline and --scores analysis build one record, not only the same bytes
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        *_, rows = _score_chain(PipelineConfig(corpus_path=str(step_corpus),
                                               lexicon_path=str(LEXICON)))
        inline = stats.analyze(bucket_scores(rows))
        from_scores = stats.analyze(bucket_scores(_read_scores_csv(score_out / "scores.csv")))
        assert inline == from_scores
        assert (len(inline.years), len(inline.trends)) == (10, 6)

    def test_bucket_means_equal_trend_raw_means(self, tmp_path, step_corpus):
        # buckets.json and trend_<scale>.json print one year mean, from one route
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        buckets = json.loads((score_out / "buckets.json").read_text())
        means = {int(y): b["mean_vector"] for y, b in buckets.items() if b["count"]}
        inline, from_scores = tmp_path / "an_inline", tmp_path / "an_scores"
        assert main(["analyze", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(inline)]) == EXIT_OK
        assert main(["analyze", "--scores", str(score_out / "scores.csv"),
                     "--output-dir", str(from_scores)]) == EXIT_OK
        for out in (inline, from_scores):
            for i, dim in enumerate(("tension", "depression", "anger", "vigor",
                                     "fatigue", "confusion")):
                trend = json.loads((out / f"trend_{dim}.json").read_text())
                assert trend["years"] == sorted(means)
                assert trend["raw_means"] == [means[y][i] for y in trend["years"]], dim

    def test_scores_round_trip_with_csv_special_ids(self, tmp_path, step_corpus):
        lines = step_corpus.read_text().splitlines()
        for i, new_id in ((0, "a,1"), (40, 'q"x')):
            lines[i] = new_id + lines[i][lines[i].index("\t"):]
        corpus = tmp_path / "ids.tsv"
        corpus.write_text("\n".join(lines) + "\n")
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        ids = [r["id"] for r in read_csv(score_out / "scores.csv")]
        assert "a,1" in ids and 'q"x' in ids
        from_scores, inline = tmp_path / "an_scores", tmp_path / "an_inline"
        assert main(["analyze", "--scores", str(score_out / "scores.csv"),
                     "--output-dir", str(from_scores)]) == EXIT_OK
        assert main(["analyze", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(inline)]) == EXIT_OK
        names = sorted(p.name for p in inline.iterdir()
                       if p.name.startswith(("ks_", "trend_")))
        assert len(names) == 18
        for name in names:
            assert (inline / name).read_bytes() == \
                (from_scores / name).read_bytes(), name

    def test_jsonl_id_with_carriage_return_rejected(self, tmp_path, step_corpus):
        records, _ = parse_corpus_file(step_corpus)
        objs = [{"id": r.id, "compose_date": r.compose_date.isoformat(),
                 "delivery_date": r.delivery_date.isoformat(), "body": r.body}
                for r in records]
        objs[0]["id"] = "a\rb"
        corpus = tmp_path / "cr.jsonl"
        corpus.write_text("".join(json.dumps(o) + "\n" for o in objs))
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(corpus), "--corpus-format", "jsonl",
                     "--lexicon", str(LEXICON), "--output-dir", str(score_out)]) == EXIT_OK
        assert main(["analyze", "--scores", str(score_out / "scores.csv"),
                     "--output-dir", str(tmp_path / "an")]) == EXIT_OK
        rejections = (score_out / "rejections.txt").read_text().splitlines()
        assert rejections[0].split("\t")[:3] == ["1", "", "malformed-record"]

    def test_ids_scores_csv_cannot_carry_rejected(self, tmp_path, step_corpus):
        # a NUL id stops Python 3.10's csv writer, and an id over the csv
        # module's 131,072-character field limit cannot be read back
        lines = step_corpus.read_text().splitlines()
        for i, new_id in ((0, "a\0b"), (40, "x" * 131_073)):
            lines[i] = new_id + lines[i][lines[i].index("\t"):]
        corpus = tmp_path / "ids.tsv"
        corpus.write_text("\n".join(lines) + "\n")
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        assert main(["analyze", "--scores", str(score_out / "scores.csv"),
                     "--output-dir", str(tmp_path / "an")]) == EXIT_OK
        rejections = [line.split("\t")[:3] for line in
                      (score_out / "rejections.txt").read_text().splitlines()]
        assert [r for r in rejections if r[2] == "malformed-record"] == [
            ["1", "", "malformed-record"], ["41", "", "malformed-record"]]

    def test_malformed_scores_row_exits_2(self, tmp_path, step_corpus, capsys):
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        scores = score_out / "scores.csv"
        with open(scores, "a") as fh:
            fh.write("x,2010,0.5,0.5\n")
        assert main(["analyze", "--scores", str(scores),
                     "--output-dir", str(tmp_path / "an")]) == EXIT_DATA
        assert "bad scores.csv line 302" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        "x,2010,nan,0,0,0,0,0,1",
        "x,2010,inf,0,0,0,0,0,1",
        "x,2010,0,0,0,0,0,-inf,1",
        "x,2010,0.5,0,0,0,0,nan,1",
        "x,2010,5.0,0,0,0,0,0,1",
        "x,2010,-0.25,1.0,0,0,0,0,2",
        "x,2010,1.0,0,0,0,0,0,-1",
        "x,2010,1.0,0,0,0,0,0,0",
        "x,2010,0,0,0,0,0,0,3",
        "x,99999,1.0,0,0,0,0,0,1",
        "x,0,1.0,0,0,0,0,0,1",
        "x, 2010,1.0,0,0,0,0,0,1",
        "x,2_010,1.0,0,0,0,0,0,1",
        "x,2010,1.0,0,0,0,0,0, 1",
        "x,2010,\u0660.\u0665,0.0,0.0,0.0,0.0,0.0,3",
        "x,2010, 0.5,0.0,0.0,0.0,0.0,0.0,3",
        "x,2010,+0.5,0.0,0.0,0.0,0.0,0.0,3",
        "x,2010,0.2_5,0.0,0.0,0.0,0.0,0.0,3",
        "x,2010,1e0,0.0,0.0,0.0,0.0,0.0,3",
        "x,2010,0.50,0.0,0.0,0.0,0.0,0.0,3",
        "x,2010,.5,0.0,0.0,0.0,0.0,0.0,3",
        "x,2010,0.0,0.0,0.0,0.0,0.0,0.0,0",
    ], ids=["nan", "inf", "minus-inf-last", "nan-last", "above-1", "below-0", "negative-count",
            "zero-count-with-hits", "count-without-hits", "year-above-9999",
            "year-0", "year-leading-space", "year-underscore", "count-leading-space",
            "arabic-indic-digits", "component-leading-space", "component-plus",
            "component-underscore", "component-exponent-0", "component-trailing-zero",
            "component-no-leading-zero", "zero-count-float-zeros"])
    def test_impossible_scores_row_exits_2(self, tmp_path, step_corpus, capsys, row):
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        scores = score_out / "scores.csv"
        with open(scores, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        capsys.readouterr()
        assert main(["analyze", "--scores", str(scores),
                     "--output-dir", str(tmp_path / "an")]) == EXIT_DATA
        err = capsys.readouterr().err
        one_error_line(err)
        assert "error: bad scores.csv line 302: " in err
        assert not (tmp_path / "an").exists()

    # ids that ingest rejects, so score never writes them; a quoted CR or
    # LF ends the csv module's line, so that row's error names the next line
    @pytest.mark.parametrize("field, line", [
        ("a\0b", 4), ("a\tb", 4), ('"a\rb"', 5), ('"a\nb"', 5), ('" "', 4), ("", 4),
    ], ids=["nul", "tab", "quoted-cr", "quoted-lf", "blank", "empty"])
    def test_scores_id_held_to_ingest_rule(self, tmp_path, step_corpus, capsys, field, line):
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        scores = score_out / "scores.csv"
        lines = scores.read_text().split("\n")
        lines[3] = field + lines[3][lines[3].index(","):]
        scores.write_text("\n".join(lines))
        capsys.readouterr()
        assert main(["analyze", "--scores", str(scores),
                     "--output-dir", str(tmp_path / "an")]) == EXIT_DATA
        err = capsys.readouterr().err
        one_error_line(err)
        assert f"error: bad scores.csv line {line}: " in err
        assert not (tmp_path / "an").exists()

    def test_scores_path_respects_year_range(self, tmp_path, step_corpus):
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(step_corpus),
                     "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        out = tmp_path / "an"
        assert main(["analyze", "--scores", str(score_out / "scores.csv"),
                     "--year-min", "2009", "--year-max", "2012",
                     "--output-dir", str(out)]) == EXIT_OK
        rows = read_csv(out / "ks_depression.csv")
        years = {int(r["year_a"]) for r in rows} | {int(r["year_b"]) for r in rows}
        assert years == {2009, 2010, 2011, 2012}

    def test_inline_year_window_equals_scores_path(self, tmp_path, step_corpus):
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(score_out)]) == EXIT_OK
        window = ["--year-min", "2009", "--year-max", "2012"]
        from_scores, inline = tmp_path / "an_scores", tmp_path / "an_inline"
        assert main(["analyze", "--scores", str(score_out / "scores.csv"), *window,
                     "--output-dir", str(from_scores)]) == EXIT_OK
        assert main(["analyze", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     *window, "--output-dir", str(inline)]) == EXIT_OK
        names = sorted(p.name for p in inline.iterdir())
        assert names == sorted(p.name for p in from_scores.iterdir())
        for name in names:
            assert (inline / name).read_bytes() == (from_scores / name).read_bytes(), name
        rows = read_csv(inline / "trend_depression.csv")
        assert [r["year"] for r in rows] == ["2009", "2010", "2011", "2012"]

    def test_too_few_buckets_exits_nonzero(self, tmp_path):
        records = [make_record("so angry today and very tired", rec_id="only",
                               delivery="2010-01-01")]
        corpus = tmp_path / "one.tsv"
        corpus.write_text(format_record_line(records[0]) + "\n")
        rc = main(["analyze", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                   "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_DATA

    def test_two_buckets_emit_ks_but_skip_trends(self, tmp_path, capsys):
        records = [
            make_record("so angry today I am furious", rec_id="a", delivery="2010-01-01"),
            make_record("feeling cheerful and lively now", rec_id="b", delivery="2011-01-01"),
        ]
        corpus = tmp_path / "two.tsv"
        corpus.write_text("\n".join(format_record_line(r) for r in records) + "\n")
        out = tmp_path / "o"
        rc = main(["analyze", "--corpus", str(corpus), "--lexicon", str(LEXICON),
                   "--output-dir", str(out)])
        assert rc == EXIT_OK
        assert "trend fits skipped" in capsys.readouterr().err
        assert (out / "ks_anger.csv").exists()
        assert not (out / "trend_anger.csv").exists()

    def test_alpha_flags_respected(self, tmp_path, step_corpus):
        out = tmp_path / "an"
        assert main(["analyze", "--corpus", str(step_corpus),
                     "--lexicon", str(LEXICON), "--output-dir", str(out),
                     "--alpha-significant", "1e-9",
                     "--alpha-marginal", "1e-8"]) == EXIT_OK
        rows = read_csv(out / "ks_depression.csv")
        assert all(r["flag"] != "significant" or float(r["p"]) < 1e-9
                   for r in rows)


class TestConfigHandling:
    def test_config_file_drives_pipeline(self, tmp_path, step_corpus):
        out = tmp_path / "from_config"
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            f"corpus_path = {step_corpus}\n"
            f"lexicon_path = {LEXICON}\n"
            f"output_dir = {out}\n"
            "alpha_significant = 0.05\n"
            "alpha_marginal = 0.1\n")
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        assert (out / "ks_depression.csv").exists()

    def test_cli_flag_overrides_config(self, tmp_path, step_corpus):
        cfg = tmp_path / "run.conf"
        flag_out = tmp_path / "flag_out"
        cfg.write_text(
            f"corpus_path = {step_corpus}\n"
            f"lexicon_path = {LEXICON}\n"
            f"output_dir = {tmp_path / 'config_out'}\n")
        assert main(["analyze", "--config", str(cfg),
                     "--output-dir", str(flag_out)]) == EXIT_OK
        assert flag_out.exists()
        assert not (tmp_path / "config_out").exists()

    def test_bad_alpha_ordering_exits_1(self, tmp_path, step_corpus):
        rc = main(["analyze", "--corpus", str(step_corpus),
                   "--lexicon", str(LEXICON),
                   "--output-dir", str(tmp_path / "o"),
                   "--alpha-significant", "0.2", "--alpha-marginal", "0.1"])
        assert rc == EXIT_USAGE

    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("corpus_path = x\nwibble = 3\n")
        assert main(["stats", "--config", str(cfg)]) == EXIT_USAGE

    def test_bad_usage_exits_1(self, tmp_path):
        assert main(["analyze", "--no-such-flag"]) == EXIT_USAGE

    def test_missing_corpus_flag_exits_1(self, tmp_path):
        assert main(["score", "--lexicon", str(LEXICON),
                     "--output-dir", str(tmp_path / "o")]) == EXIT_USAGE


class TestStemCommand:
    def test_stems_printed(self, capsys):
        assert main(["stem", "angrily", "Daunted!"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "angrily\tangrili" in out
        assert "daunted\tdaunt" in out


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = run_python("-m", "moodtrends", "stem", "worrying")
        assert proc.returncode == EXIT_OK
        assert "worrying\tworri" in proc.stdout

    # runs the CLI on its arguments, then prints whether numpy got imported
    _NUMPY_PROBE = ("import sys\nfrom moodtrends.cli import main\n"
                    "try:\n    rc = main(sys.argv[1:])\n"
                    "except SystemExit as exc:\n    rc = exc.code\n"
                    "print('numpy' in sys.modules)\nsys.exit(rc)")

    @pytest.mark.parametrize("command", ["stats", "score", "synth", "stem", "--help",
                                         "analyze", "analyze-scores"])
    def test_no_command_imports_numpy(self, tmp_path, step_corpus, command):
        scored = tmp_path / "scored"
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(scored)]) == EXIT_OK
        corpus = ["--corpus", str(step_corpus)]
        out = ["--output-dir", str(tmp_path / "o")]
        argv = {
            "stats": ["stats", *corpus, *out],
            "score": ["score", *corpus, "--lexicon", str(LEXICON), *out],
            "synth": ["synth", "--spec", str(tmp_path / "step.spec"),
                      "--out", str(tmp_path / "o.tsv")],
            "stem": ["stem", "worrying"],
            "--help": ["--help"],
            "analyze": ["analyze", *corpus, "--lexicon", str(LEXICON), *out],
            "analyze-scores": ["analyze", "--scores", str(scored / "scores.csv"), *out],
        }[command]
        proc = run_python("-c", self._NUMPY_PROBE, *argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_numpy_probe_positive_control(self):
        proc = run_python("-c", "import numpy\n" + self._NUMPY_PROBE, "stem", "worrying")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True"

    def test_cli_import_skips_xml_stack(self):
        proc = run_python("-c", "import sys, moodtrends.cli; print(sorted("
                               "m for m in sys.modules if m.startswith('xml.sax')))")
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_cli_import_skips_dataclasses_inspect_html(self):
        # only what the import adds counts: site hooks may load some of these;
        # importlib.resources imports inspect on Python 3.12 and later
        proc = run_python("-c", "import sys; before = set(sys.modules)\n"
                                "import moodtrends.cli\n"
                                "print(sorted({'dataclasses', 'inspect', 'html',"
                                " 'importlib.resources'} & (set(sys.modules) - before)))")
        assert (proc.returncode, proc.stdout) == (0, "[]\n")


class TestSvgRendering:
    def test_degenerate_flat_trend_renders(self):
        import xml.etree.ElementTree as ET

        from moodtrends.lexicon import MoodScale
        from moodtrends.stats import SignificanceMatrix, TrendSeries
        from moodtrends.svg import render_trend_svg
        trend = TrendSeries(
            dimension=MoodScale.FATIGUE, years=[2010, 2011, 2012],
            raw_means=[0.5, 0.5, 0.5], z_scores=[0.0, 0.0, 0.0],
            fit_coeffs=(0.0, 0.0, 0.0), fitted=[0.0, 0.0, 0.0],
            degenerate=True)
        doc = render_trend_svg(trend, SignificanceMatrix({}, {}))
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")

    @staticmethod
    def _texts(n_years, flags=None):
        from moodtrends.lexicon import MoodScale
        from moodtrends.stats import SignificanceMatrix, build_trend
        from moodtrends.svg import render_trend_svg
        buckets = {2000 + i: vector_bucket([[0.1 + (i * i % 7) / 10, 0, 0, 0, 0, 0]],
                                           year=2000 + i)
                   for i in range(n_years)}
        matrix = SignificanceMatrix({}, flags or {})
        doc = render_trend_svg(build_trend(buckets, MoodScale.TENSION), matrix)
        return [t.text for t in ET.fromstring(doc).iter("{http://www.w3.org/2000/svg}text")]

    @pytest.mark.parametrize("n_years,labelled", [
        (8, list(range(2000, 2008))),
        (17, list(range(2000, 2017, 2))),
        (18, [*range(2000, 2017, 2), 2017]),
    ], ids=["8-every-year", "17-every-other", "18-every-other-and-last"])
    def test_year_tick_labels(self, n_years, labelled):
        assert [int(t) for t in self._texts(n_years) if t.isdigit()] == labelled

    def test_flagged_pair_marks(self):
        from moodtrends.stats import FLAG_MARGINAL, FLAG_NONE, FLAG_SIGNIFICANT
        flags = {(2000, 2001): FLAG_MARGINAL, (2000, 2002): FLAG_NONE,
                 (2001, 2002): FLAG_SIGNIFICANT}
        assert self._texts(3, flags)[-1] == "flagged pairs: 2000–2001 *  2001–2002 **"
        assert self._texts(3)[-1] == "flagged pairs: none"


def bad_input(tmp_path, kind):
    """A path that cannot be read as a UTF-8 input file."""
    path = tmp_path / f"bad-{kind}"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"\xff\xfe\x00bad = \xff\n")
    elif kind == "non-utf8-past-64k":
        # a scores.csv whose rows keep the rule up to its first bad byte
        path.write_bytes(b"id,delivery_year,tension,depression,anger,vigor,fatigue,confusion,"
                         b"match_count\n" + b"x,2010,0,0,0,0,0,0,0\n" * 4000 + b"\xff\n")
    return path


def one_error_line(err):
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1


# a corpus is decoded line by line, so a non-UTF-8 corpus is not unreadable:
# its lines become rejections (test_non_utf8_corpus_lines_rejected)
DATA_INPUT_FAILURES = [(role, kind) for role in ("corpus", "lexicon", "scores", "spec")
                       for kind in ("missing", "directory", "non-utf8")
                       if (role, kind) != ("corpus", "non-utf8")]
# scores.csv is read row by row, so its reader meets a late bad byte mid-read
DATA_INPUT_FAILURES.append(("scores", "non-utf8-past-64k"))


class TestInputGuard:
    @pytest.mark.parametrize("role,kind", DATA_INPUT_FAILURES)
    def test_unreadable_data_input_exits_2(self, tmp_path, step_corpus, capsys,
                                           role, kind):
        bad, out = str(bad_input(tmp_path, kind)), str(tmp_path / "o")
        argv = {
            "corpus": ["score", "--corpus", bad, "--lexicon", str(LEXICON)],
            "lexicon": ["score", "--corpus", str(step_corpus), "--lexicon", bad],
            "scores": ["analyze", "--scores", bad],
            "spec": ["synth", "--spec", bad, "--out", str(tmp_path / "x.tsv")],
        }[role]
        if role != "spec":
            argv += ["--output-dir", out]
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        one_error_line(err)
        assert f"error: cannot read {'synth spec' if role == 'spec' else role} {bad}: " in err

    @pytest.mark.parametrize("command", ["score", "analyze"])
    @pytest.mark.parametrize("lexicon", ["missing", "invalid"])
    def test_bad_lexicon_reported_before_corpus_parsed(self, tmp_path, step_corpus, capsys,
                                                       monkeypatch, command, lexicon):
        path = tmp_path / "lexicon.txt"
        if lexicon == "invalid":
            path.write_text("angry | anger | mad\nangry | tension | cross\n")
        parsed = []
        monkeypatch.setattr("moodtrends.corpus.parse_corpus_file",
                            lambda *args, **kwargs: parsed.append(args) or ([], []))
        capsys.readouterr()
        assert main([command, "--corpus", str(step_corpus), "--lexicon", str(path),
                     "--output-dir", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        one_error_line(err)
        assert ("cannot read lexicon" in err) == (lexicon == "missing")
        assert parsed == []

    @pytest.mark.parametrize("command", ["score", "analyze"])
    def test_missing_lexicon_flag_named_before_missing_corpus(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.tsv"
        capsys.readouterr()
        assert main([command, "--corpus", str(missing),
                     "--output-dir", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        one_error_line(err)
        assert err.splitlines()[-1] == ("error: no lexicon path given "
                                        "(flag --lexicon or config lexicon_path)")

    def test_non_utf8_corpus_lines_rejected(self, tmp_path):
        out = tmp_path / "o"
        assert main(["score", "--corpus", str(bad_input(tmp_path, "non-utf8")),
                     "--lexicon", str(LEXICON), "--output-dir", str(out)]) == EXIT_OK
        rejection = (out / "rejections.txt").read_text().split("\t")
        assert rejection[:3] == ["1", "", "unknown-character-encoding"]

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, kind):
        assert main(["stats", "--config", str(bad_input(tmp_path, kind))]) == EXIT_USAGE
        err = capsys.readouterr().err
        one_error_line(err)
        assert "cannot read config" in err

    @pytest.mark.parametrize("flags", [["--year-min", "x", "--year-max", "2010"],
                                       ["--corpus-format", "xml"]])
    def test_bad_flag_value_exits_1(self, tmp_path, step_corpus, capsys, flags):
        assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(tmp_path / "o"), *flags]) == EXIT_USAGE
        one_error_line(capsys.readouterr().err)


class TestOutputWriter:
    def test_failed_write_keeps_previous_file(self, tmp_path, step_corpus, monkeypatch):
        out = tmp_path / "score"
        argv = ["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                "--output-dir", str(out)]
        assert main(argv) == EXIT_OK
        before = (out / "scores.csv").read_bytes()
        real_writer = csv.writer

        class FailingWriter:
            def __init__(self, fh, **kwargs):
                self.inner, self.rows = real_writer(fh, **kwargs), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 100:
                    raise RuntimeError("disk gone")
                return self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", FailingWriter)
        with pytest.raises(RuntimeError, match="disk gone"):
            main(argv)
        assert (out / "scores.csv").read_bytes() == before
        assert not list(out.glob(".*.tmp"))

    def test_svg_from_flag_and_from_config(self, tmp_path, step_corpus):
        by_flag, by_config = tmp_path / "flag", tmp_path / "config"
        assert main(["analyze", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                     "--output-dir", str(by_flag), "--emit-svg"]) == EXIT_OK
        cfg = tmp_path / "svg.conf"
        cfg.write_text(f"corpus_path = {step_corpus}\nlexicon_path = {LEXICON}\n"
                       f"output_dir = {by_config}\nemit_svg = true\n")
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        for out in (by_flag, by_config):
            assert len(list(out.glob("trend_*.svg"))) == 6
            assert not list(out.glob(".*"))

    def test_jsonl_surrogate_id_rejected(self, tmp_path, step_corpus):
        records, _ = parse_corpus_file(step_corpus)
        lines = [json.dumps({"id": r.id, "compose_date": r.compose_date.isoformat(),
                             "delivery_date": r.delivery_date.isoformat(),
                             "body": r.body}) for r in records]
        lines[0] = lines[0].replace(json.dumps(records[0].id), '"a\\ud800"')
        lines.insert(1, '{"id": "b\\ud800"}')
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        score_out = tmp_path / "score"
        assert main(["score", "--corpus", str(corpus), "--corpus-format", "jsonl",
                     "--lexicon", str(LEXICON), "--output-dir", str(score_out)]) == EXIT_OK
        assert main(["analyze", "--scores", str(score_out / "scores.csv"),
                     "--output-dir", str(tmp_path / "an")]) == EXIT_OK
        rejections = (score_out / "rejections.txt").read_text().splitlines()
        assert [r.split("\t")[:3] for r in rejections[:2]] == [
            ["1", "", "malformed-record"], ["2", "", "malformed-record"]]

    @pytest.mark.parametrize("case", ["output-dir-is-a-file", "out-is-a-directory"])
    def test_unwritable_output_exits_1(self, tmp_path, step_corpus, capsys, case):
        blocker = tmp_path / "blocker"
        if case == "output-dir-is-a-file":
            blocker.write_text("keep me\n")
            argv = ["stats", "--corpus", str(step_corpus), "--output-dir", str(blocker)]
        else:
            blocker.mkdir()
            argv = ["synth", "--spec", str(tmp_path / "step.spec"), "--out", str(blocker)]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        one_error_line(err)
        assert f"error: cannot write {blocker}" in err
        assert not list(tmp_path.rglob(".*.tmp"))
        assert blocker.is_dir() if case == "out-is-a-directory" else \
            blocker.read_text() == "keep me\n"

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-a-file"])
    def test_unmakeable_output_dir_named(self, tmp_path, step_corpus, capsys, sub):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep me\n")
        out_dir = blocker / sub
        capsys.readouterr()
        assert main(["stats", "--corpus", str(step_corpus),
                     "--output-dir", str(out_dir)]) == EXIT_USAGE
        err = capsys.readouterr().err
        one_error_line(err)
        assert (f"error: cannot write {out_dir / 'histogram.csv'}: "
                f"cannot make directory {out_dir}: ") in err
        assert blocker.read_text() == "keep me\n"

    @pytest.mark.parametrize("out", ["", ".", "/"], ids=["empty", "dot", "root"])
    def test_out_without_file_name_exits_1(self, tmp_path, capsys, monkeypatch, out):
        spec = tmp_path / "step.spec"
        spec.write_text(STEP_SPEC)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["synth", "--spec", str(spec), "--out", out]) == EXIT_USAGE
        err = capsys.readouterr().err
        one_error_line(err)
        assert err == f"error: cannot write {Path(out)}: no file name\n"
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("out,reason", [("sub/..", "no file name"),
                                            ("new/deeper/corpus.tsv", os.strerror(errno.EIO))],
                             ids=["dot-dot", "failed-replace"])
    def test_failed_write_leaves_no_directory(self, tmp_path, capsys, monkeypatch, out, reason):
        spec = tmp_path / "step.spec"
        spec.write_text(STEP_SPEC)
        monkeypatch.chdir(tmp_path)

        def failing_replace(src, dst):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        monkeypatch.setattr(os, "replace", failing_replace)
        capsys.readouterr()
        assert main(["synth", "--spec", str(spec), "--out", out]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: cannot write {Path(out)}: {reason}\n"
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("name", ["n" * 255, "x" + "\u00e9" * 127],
                             ids=["ascii", "cut-inside-a-character"])
    def test_longest_file_name_written(self, tmp_path, name):
        # the temp name holds a cut of the name, so a 255-byte name still fits
        assert len(os.fsencode(name)) == 255
        spec = tmp_path / "step.spec"
        spec.write_text(STEP_SPEC)
        out, short = tmp_path / "new" / name, tmp_path / "short.tsv"
        for path in (out, short):
            assert main(["synth", "--spec", str(spec), "--out", str(path)]) == EXIT_OK
        assert out.read_bytes() == short.read_bytes()
        assert not list(tmp_path.rglob(".*.tmp"))
        probe = tmp_path / "probe"
        with open(probe, "w"):
            pass
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(probe.stat().st_mode)

    @pytest.mark.parametrize("command", ["stats", "score", "analyze", "analyze-scores",
                                         "synth"])
    def test_outputs_checked_before_inputs_read(self, tmp_path, capsys, command):
        # every input is missing and the output cannot be written: the output wins
        blocker, missing = tmp_path / "blocker", str(tmp_path / "missing")
        if command == "synth":
            blocker.mkdir()
            argv = ["synth", "--spec", missing, "--out", str(blocker)]
        else:
            blocker.write_text("keep me\n")
            argv = {"stats": ["stats", "--corpus", missing],
                    "score": ["score", "--corpus", missing, "--lexicon", missing],
                    "analyze": ["analyze", "--corpus", missing, "--lexicon", missing],
                    "analyze-scores": ["analyze", "--scores", missing],
                    }[command] + ["--output-dir", str(blocker)]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        one_error_line(err)
        assert err.startswith(f"error: cannot write {blocker}")
        assert list(tmp_path.iterdir()) == [blocker]


# record ids: non-blank, no tab, line break or lone surrogate; a NUL id,
# which the corpus rejects, is drawn too, and both runs must reject it alike
_IDS = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\t\r\n"),
               min_size=1, max_size=12).filter(str.strip)
_BODY_WORDS = st.one_of(
    st.text(max_size=15),
    st.sampled_from([e.main_term for e in load_default_lexicon().entries]),
    st.sampled_from(["the", "and", "i", "you", "to"]))


@st.composite
def _jsonl_corpora(draw):
    years = draw(st.lists(st.integers(2007, 2040), min_size=2, max_size=4, unique=True))
    records = draw(st.lists(
        st.tuples(_IDS, st.sampled_from(years),
                  st.lists(_BODY_WORDS, max_size=12).map(" ".join)),
        min_size=1, max_size=12))
    return "".join(json.dumps({"id": rec_id, "compose_date": "2006-01-01",
                               "delivery_date": f"{year}-06-15", "body": body}) + "\n"
                   for rec_id, year, body in records)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), [l for l in err.getvalue().splitlines()
                                if l.startswith("error:")]


@given(_jsonl_corpora())
@settings(max_examples=30, deadline=None)
def test_score_then_analyze_scores_equals_inline(corpus_text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = tmp / "corpus.jsonl"
        corpus.write_text(corpus_text, encoding="utf-8")
        source = ["--corpus", str(corpus), "--corpus-format", "jsonl",
                  "--lexicon", str(LEXICON)]
        assert _run(["score", *source, "--output-dir", str(tmp / "score")])[0] == EXIT_OK
        staged = _run(["analyze", "--scores", str(tmp / "score" / "scores.csv"),
                       "--output-dir", str(tmp / "staged")])
        inline = _run(["analyze", *source, "--output-dir", str(tmp / "inline")])
        assert staged == inline
        event(f"analyze exit {inline[0]}")
        if inline[0] != EXIT_OK:
            assert inline[0] == EXIT_DATA
            assert inline[2] and "need at least two non-empty year buckets" in inline[2][0]
            return
        names = sorted(p.name for p in (tmp / "inline").iterdir())
        assert names == sorted(p.name for p in (tmp / "staged").iterdir())
        for name in names:
            assert (tmp / "inline" / name).read_bytes() == \
                (tmp / "staged" / name).read_bytes(), name


# a count over 10^4 times another's puts a component under 1e-4, which
# str() prints in e-notation (the first example prints 4.9999999937499996e-05)
@given(st.lists(st.integers(0, 10**7), min_size=6, max_size=6), st.integers(1, 9999))
@example([1, 0, 0, 0, 0, 20_000], 2010)
@example([10**7, 1, 3, 0, 0, 999], 9999)
@example([0, 0, 10**5, 7, 0, 0], 1)
@example([0] * 6, 2010)
@settings(max_examples=200, deadline=None)
def test_written_scores_row_reads_back(counts, year):
    # normalized as score_record normalizes its int scale sums
    norm = math.sqrt(sum(c * c for c in counts)) or 1.0
    row = ScoredRecord("x", year, tuple(c / norm for c in counts), sum(counts))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        _write_scores_csv(path, [row])
        assert list(_read_scores_csv(path)) == [row]


def test_every_flag_is_a_config_key():
    import argparse

    from moodtrends.cli import build_parser
    from moodtrends.config import KEY_TYPES

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    reachable = set()
    for name in ("stats", "score", "analyze"):
        dests = {a.dest for a in sub.choices[name]._actions} - {"help", "config", "scores"}
        assert dests <= set(KEY_TYPES), name
        for action in sub.choices[name]._actions:
            if action.dest in KEY_TYPES:
                assert action.type is None and action.choices is None
        reachable |= dests
    assert reachable == set(KEY_TYPES)


# --- hand-edited formats: one exact error line and exit code per rule ---

LEXICON_BASE = """\
# version: pinned-1
tense | tension | uptight
sad | depression | sorrowful
angry | anger | mad
lively | vigor | spirited
weary | fatigue | worn out
dazed | confusion | foggy
"""

SYNTH_BASE = """\
years = 2007-2009
emails_per_year = 2
seed = 1
trend.vigor = constant(3)
"""


def _error_of(argv, capsys):
    capsys.readouterr()
    rc = main(argv)
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("blue | tension | calm | cool",
     "expected 'main | scale | phrases', got 'blue | tension | calm | cool'"),
    (" | tension | calm", "empty main term"),
    ("42 | tension", "main term '42' has no alphabetic words"),
    ("very very very very tense | tension",
     "main term 'very very very very tense' longer than 4 words"),
    ("blue | tension | calm,, cool", "empty extended phrase under 'blue'"),
    ("blue | tension | calm, 42", "phrase '42' has no alphabetic words"),
    ("blue | tension | One  two three four five",
     "phrase 'one two three four five' longer than 4 words"),
], ids=["field-count", "empty-main", "main-no-letters", "main-too-long",
        "empty-phrase", "phrase-no-letters", "phrase-too-long"])
def test_lexicon_rule_error_line(tmp_path, capsys, line, message):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(LEXICON_BASE + line + "\n")
    corpus = tmp_path / "empty.tsv"
    corpus.write_text("")
    rc, err = _error_of(["score", "--corpus", str(corpus), "--lexicon", str(lexicon),
                         "--output-dir", str(tmp_path / "o")], capsys)
    assert (rc, err) == (EXIT_DATA, f"error: line 8: {message}\n")


@pytest.mark.parametrize("old,new,message", [
    ("seed = 1", "wibble = 1", "unknown synth spec key 'wibble'"),
    ("seed = 1", "trend.energy = constant(1)", "unknown scale in 'trend.energy'"),
    ("years = 2007-2009\n", "", "synth spec needs a years = MIN-MAX line"),
    ("2007-2009", "2007-later", "bad years value '2007-later'"),
    ("2007-2009", "2009-2007", "empty year range '2009-2007'"),
    ("2007-2009", "0-2009", "years must lie in 1-9999, got '0-2009'"),
    ("2007-2009", "2007-100000000000000000000",
     "years must lie in 1-9999, got '2007-100000000000000000000'"),
    ("trend.vigor = constant(3)\n", "", "synth spec defines no trend.<scale> lines"),
    ("constant(3)", "constant 3", "bad profile expression 'constant 3'"),
    ("constant(3)", "constant(three)", "bad profile arguments in 'constant(three)'"),
    ("constant(3)", "wobble(1)", "unknown profile 'wobble(1)'"),
    ("constant(3)", "step(1, 2)", "step takes 3 arguments, got 2 in 'step(1, 2)'"),
    ("constant(3)", "linear(1, 2, 3)",
     "linear takes 1 or 2 arguments, got 3 in 'linear(1, 2, 3)'"),
    ("seed = 1", "noise_sd = -0.5", "noise_sd must be >= 0"),
    ("seed = 1", "noise_sd.vigor = -1", "noise_sd must be >= 0"),
    ("seed = 1", "noise_sd = inf", "noise_sd must be finite, got inf"),
    ("seed = 1", "noise_sd = nan", "noise_sd must be finite, got nan"),
    ("seed = 1", "noise_sd.vigor = -inf", "noise_sd must be finite, got -inf"),
    ("seed = 1", "noise_sd.vigor = nan", "noise_sd must be finite, got nan"),
    ("seed = 1", "trend.vigor = constant(9)",
     "{path}:4: repeated key 'trend.vigor' (first on line 3)"),
    ("seed = 1", "years = 2007-2010", "{path}:3: repeated key 'years' (first on line 1)"),
    ("emails_per_year = 2", "emails_per_year = 0", "emails_per_year must be >= 1"),
    ("seed = 1", "noise_sd.anger = 5", "noise_sd.anger has no trend.anger line"),
    ("seed = 1", "noise_sd.vigor = 0\nnoise_sd = inf", "noise_sd must be finite, got inf"),
    ("seed = 1", "noise_sd.vigor = 0\nnoise_sd = -1", "noise_sd must be >= 0"),
    ("emails_per_year = 2", "emails_per_year = ten",
     "bad value for emails_per_year: 'ten'"),
    ("seed = 1", "seed = 1.5", "bad value for seed: '1.5'"),
    ("seed = 1", "origin_year = abc", "bad value for origin_year: 'abc'"),
    ("seed = 1", "noise_sd = x", "bad value for noise_sd: 'x'"),
    ("seed = 1", "noise_sd.vigor = x", "bad value for noise_sd.vigor: 'x'"),
    ("years = 2007-2009\nemails_per_year = 2", "emails_per_year = ten",
     "bad value for emails_per_year: 'ten'"),
    ("seed = 1", "origin_year = 0", "origin_year must lie in 1-9999, got '0'"),
    ("seed = 1", "origin_year = 10000", "origin_year must lie in 1-9999, got '10000'"),
], ids=["unknown-key", "unknown-scale", "missing-years", "bad-years", "empty-range",
        "year-zero", "huge-year-span",
        "no-trend", "bad-expression", "bad-arguments", "unknown-profile",
        "step-arity", "linear-arity", "negative-noise", "negative-scale-noise",
        "infinite-noise", "nan-noise", "infinite-scale-noise", "nan-scale-noise",
        "repeated-trend", "repeated-years", "no-emails", "orphan-scale-noise",
        "infinite-noise-all-scales-set", "negative-noise-all-scales-set",
        "word-emails", "fractional-seed", "word-origin-year", "word-noise",
        "word-scale-noise", "word-before-missing-years", "origin-year-zero",
        "origin-year-too-late"])
def test_synth_spec_rule_error_line(tmp_path, capsys, old, new, message):
    spec = tmp_path / "bad.spec"
    spec.write_text(SYNTH_BASE.replace(old, new))
    rc, err = _error_of(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.tsv")],
                        capsys)
    assert (rc, err) == (EXIT_DATA, f"error: bad synth spec: {message.format(path=spec)}\n")


@pytest.mark.parametrize("line,message", [
    ("wibble = 3", "unknown config key 'wibble'"),
    ("emit_svg = maybe", "bad value for emit_svg: 'maybe'"),
    ("top_n = ten", "bad value for top_n: 'ten'"),
    ("year_min = soon", "bad value for year_min: 'soon'"),
    ("english_threshold = high", "bad value for english_threshold: 'high'"),
    ("year_min = 2010", "year_min and year_max must be set together"),
    ("year_min = 2012\nyear_max = 2010", "year_min 2012 > year_max 2010"),
    ("english_threshold = 1.5", "english_threshold must be in [0, 1], got 1.5"),
    ("english_threshold = -0.1", "english_threshold must be in [0, 1], got -0.1"),
    ("top_n = -1", "top_n must be >= 0"),
    ("# wibble = 3\n\n   # top_n = 5\ntop_n = -1", "top_n must be >= 0"),
    ("top_n 5", "{path}:2: expected 'key = value', got 'top_n 5'"),
    ("corpus_path = y", "{path}:2: repeated key 'corpus_path' (first on line 1)"),
    ("output_dir = a\n# output_dir = b\noutput_dir = c",
     "{path}:4: repeated key 'output_dir' (first on line 2)"),
    ("output_dir = o\0x", "output_dir contains a NUL byte"),
    ("lexicon_path = \0", "lexicon_path contains a NUL byte"),
    ("output_dir =", "output_dir must not be empty"),
], ids=["unknown-key", "bool", "int", "optional-int", "float",
        "year-min-alone", "year-range-reversed", "threshold-above-1", "threshold-below-0",
        "negative-top-n", "comment-lines", "no-equals", "repeated-key",
        "repeated-key-after-comment", "nul-output-dir", "nul-lexicon-path",
        "empty-output-dir"])
def test_config_rule_error_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.conf"
    cfg.write_text(f"corpus_path = x\n{line}\n")
    rc, err = _error_of(["stats", "--config", str(cfg)], capsys)
    assert (rc, err) == (EXIT_USAGE, f"error: {message.format(path=cfg)}\n")


def test_empty_output_dir_flag_exits_1(tmp_path, step_corpus, capsys, monkeypatch):
    # an empty output_dir would put every output in the working directory
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    rc, err = _error_of(["stats", "--corpus", str(step_corpus), "--output-dir", ""], capsys)
    assert (rc, err) == (EXIT_USAGE, "error: output_dir must not be empty\n")
    assert sorted(tmp_path.iterdir()) == before


def test_nul_in_corpus_path_rejected():
    # the config table's base line sets corpus_path, so this key is checked here
    from moodtrends.config import ConfigError, PipelineConfig
    with pytest.raises(ConfigError, match="^corpus_path contains a NUL byte$"):
        PipelineConfig(corpus_path="a\0b").validate()


@pytest.mark.parametrize("fmt", [*FORMATS, "csv"])
def test_config_and_parser_share_formats(fmt):
    from moodtrends.config import ConfigError, PipelineConfig
    if fmt in FORMATS:
        PipelineConfig(corpus_format=fmt).validate()
        assert parse_corpus(b"", fmt=fmt) == ([], [])
        return
    with pytest.raises(ConfigError, match="^corpus_format must be tsv or jsonl, got 'csv'$"):
        PipelineConfig(corpus_format=fmt).validate()
    with pytest.raises(ValueError, match="^unknown corpus format 'csv'$"):
        parse_corpus(b"", fmt=fmt)


@pytest.mark.parametrize("argv,code,message", [
    (["score", "--corpus", "{corpus}"], EXIT_USAGE,
     "no lexicon path given (flag --lexicon or config lexicon_path)"),
    (["analyze", "--scores", "{scores}"], EXIT_DATA,
     "unexpected scores.csv header: 'id,delivery_year,match_count'"),
], ids=["score-without-lexicon", "scores-header"])
def test_cli_rule_error_line(tmp_path, capsys, argv, code, message):
    corpus, scores = tmp_path / "empty.tsv", tmp_path / "scores.csv"
    corpus.write_text("")
    scores.write_text("id,delivery_year,match_count\nx,2010,0\n")
    argv = [a.format(corpus=corpus, scores=scores) for a in argv]
    rc, err = _error_of([*argv, "--output-dir", str(tmp_path / "o")], capsys)
    assert (rc, err) == (code, f"error: {message}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("word,value", [
    ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
    ("0", False), ("False", False), ("NO", False), ("off", False)])
def test_config_bool_words(tmp_path, word, value):
    from moodtrends.config import PipelineConfig, apply_overrides, parse_kv_file
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"emit_svg = {word}\n")
    assert apply_overrides(PipelineConfig(), parse_kv_file(cfg)).emit_svg is value


BOM = "\ufeff"


def test_config_with_bom_accepted(tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(format_record_line(make_record("hope", delivery="2010-01-01")) + "\n")
    cfg = tmp_path / "run.conf"
    out = tmp_path / "from_bom_config"
    cfg.write_text(f"{BOM}output_dir = {out}\ncorpus_path = {corpus}\n", encoding="utf-8")
    assert main(["stats", "--config", str(cfg)]) == EXIT_OK
    assert (out / "histogram.csv").read_text() == "delivery_year,count\n2010,1\n"


def test_synth_spec_with_bom_accepted(tmp_path):
    spec = tmp_path / "bom.spec"
    spec.write_text(BOM + SYNTH_BASE, encoding="utf-8")
    plain = tmp_path / "plain.spec"
    plain.write_text(SYNTH_BASE, encoding="utf-8")
    for path in (spec, plain):
        assert main(["synth", "--spec", str(path),
                     "--out", str(tmp_path / f"{path.stem}.tsv")]) == EXIT_OK
    assert (tmp_path / "bom.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()


def test_scores_csv_with_bom_accepted(tmp_path, step_corpus):
    score_out = tmp_path / "score"
    assert main(["score", "--corpus", str(step_corpus), "--lexicon", str(LEXICON),
                 "--output-dir", str(score_out)]) == EXIT_OK
    plain = score_out / "scores.csv"
    bom = tmp_path / "bom_scores.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    crlf = tmp_path / "crlf_scores.csv"
    crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
    for path in (plain, bom, crlf):
        assert main(["analyze", "--scores", str(path),
                     "--output-dir", str(tmp_path / f"an_{path.stem}")]) == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "an_scores").iterdir())
    for other in ("an_bom_scores", "an_crlf_scores"):
        assert names == sorted(p.name for p in (tmp_path / other).iterdir())
        for name in names:
            assert (tmp_path / "an_scores" / name).read_bytes() == \
                (tmp_path / other / name).read_bytes(), name


def test_lexicon_with_bom_accepted(tmp_path):
    from moodtrends.lexicon import load_lexicon, load_lexicon_file
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(BOM + LEXICON_BASE, encoding="utf-8")
    assert load_lexicon_file(lexicon) == load_lexicon(LEXICON_BASE.splitlines())
    corpus = tmp_path / "empty.tsv"
    corpus.write_text("")
    assert main(["score", "--corpus", str(corpus), "--lexicon", str(lexicon),
                 "--output-dir", str(tmp_path / "o")]) == EXIT_OK


@pytest.mark.parametrize("trend,planted", [
    ("quadratic(0, 1e308, 1e308)", "inf terms in a 2008 letter"),
    ("constant(1e12)", "1e+12 terms in a 2007 letter"),
    ("constant(1)\nnoise_sd.vigor = 1e300", "9.65158e+299 terms in a 2007 letter"),
], ids=["infinite-intensity", "huge-intensity", "huge-noise"])
def test_synth_count_over_ceiling_error_line(tmp_path, trend, planted):
    # in a subprocess with a timeout, so a hang fails instead of stalling the suite
    spec = tmp_path / "bad.spec"
    spec.write_text(SYNTH_BASE.replace("constant(3)", trend))
    proc = run_python("-m", "moodtrends", "synth", "--spec", str(spec),
                      "--out", str(tmp_path / "x.tsv"), timeout=30)
    assert (proc.returncode, proc.stderr) == (
        EXIT_DATA, f"error: bad synth spec: trend.vigor plants {planted}; "
                   "the ceiling is 10000 per scale per letter\n")
    assert not (tmp_path / "x.tsv").exists()


@pytest.mark.parametrize("years,per_year,letters", [
    ("2007", "100000000", "1 x 100000000 = 100000000"),
    ("1000-9999", "200", "9000 x 200 = 1800000"),
    ("2007-2009", "333334", "3 x 333334 = 1000002"),
], ids=["huge-per-year", "long-span", "just-over"])
def test_synth_letters_over_ceiling_error_line(tmp_path, years, per_year, letters):
    # in a subprocess with a timeout, so building the corpus fails instead of
    # stalling the suite
    spec = tmp_path / "big.spec"
    spec.write_text(SYNTH_BASE.replace("2007-2009", years)
                    .replace("emails_per_year = 2", f"emails_per_year = {per_year}"))
    proc = run_python("-m", "moodtrends", "synth", "--spec", str(spec),
                      "--out", str(tmp_path / "x.tsv"), timeout=30)
    assert (proc.returncode, proc.stderr) == (
        EXIT_DATA, f"error: bad synth spec: years x emails_per_year = {letters} letters; "
                   "the ceiling is 1000000 per corpus\n")
    assert not (tmp_path / "x.tsv").exists()


@pytest.mark.parametrize("profile", ["step(1, 6, inf)", "constant(nan)",
                                     "linear(-inf)", "quadratic(1, 2, nan)"])
def test_non_finite_profile_argument_rejected(tmp_path, capsys, profile):
    spec = tmp_path / "bad.spec"
    spec.write_text(SYNTH_BASE.replace("constant(3)", profile))
    rc, err = _error_of(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.tsv")],
                        capsys)
    assert (rc, err) == (EXIT_DATA,
                         f"error: bad synth spec: bad profile arguments in {profile!r}\n")


# several scales planted under heavy noise, so year means carry full-width
# fractions and a sum that depends on line order shows in their last digits
METAMORPHIC_SPEC = """\
years = 2003-2012
emails_per_year = 40
origin_year = 2002
seed = 11
noise_sd = 1.5
trend.tension = linear(0.5, 0.8)
trend.vigor = quadratic(4, -0.6, 0.05)
trend.depression = step(1, 5, 4)
"""


class TestSameLettersSameBytes:
    """stats, score and inline analyze --emit-svg give the same bytes for
    the same letters in another form: shuffled lines (scores.csv and
    rejections.txt follow input order), JSONL, CRLF line ends, or every date
    100 years later (score and analyze, year labels mapped back)."""

    @pytest.fixture(scope="class")
    def letters(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("letters")
        spec, corpus = tmp / "noisy.spec", tmp / "corpus.tsv"
        spec.write_text(METAMORPHIC_SPEC)
        assert _run(["synth", "--spec", str(spec), "--out", str(corpus)])[0] == EXIT_OK
        records, rejections = parse_corpus_file(corpus)
        assert len(records) == 400 and not rejections
        return corpus.read_bytes(), records

    @staticmethod
    def outputs(tmp_path, name, data, fmt="tsv"):
        """Each command's stdout and every output file's bytes, keyed by
        command/file name, for the corpus bytes data."""
        corpus = tmp_path / f"{name}.{fmt}"
        corpus.write_bytes(data)
        files = {}
        for command in ("stats", "score", "analyze"):
            out = tmp_path / name / command
            argv = [command, "--corpus", str(corpus), "--corpus-format", fmt,
                    "--output-dir", str(out)]
            if command != "stats":
                argv += ["--lexicon", str(LEXICON)]
            if command == "analyze":
                argv.append("--emit-svg")
            rc, stdout, errors = _run(argv)
            assert (rc, errors) == (EXIT_OK, [])
            files[f"{command}/stdout"] = stdout.encode()
            files.update((f"{command}/{p.name}", p.read_bytes()) for p in out.iterdir())
        return files

    def test_shuffled_lines(self, tmp_path, letters):
        data, _ = letters
        lines = data.splitlines(keepends=True)
        random.Random(32).shuffle(lines)
        original = self.outputs(tmp_path, "original", data)
        shuffled = self.outputs(tmp_path, "shuffled", b"".join(lines))
        assert original.keys() == shuffled.keys()
        in_order = {"score/scores.csv", "score/rejections.txt"}
        assert ({k for k in original if original[k] != shuffled[k]} - in_order) == set()
        assert original["score/scores.csv"] != shuffled["score/scores.csv"]

    def test_jsonl_and_crlf(self, tmp_path, letters):
        data, records = letters
        jsonl = "".join(json.dumps({"id": r.id, "compose_date": r.compose_date.isoformat(),
                                    "delivery_date": r.delivery_date.isoformat(),
                                    "body": r.body}) + "\n" for r in records)
        original = self.outputs(tmp_path, "original", data)
        assert self.outputs(tmp_path, "jsonl", jsonl.encode(), "jsonl") == original
        assert self.outputs(tmp_path, "crlf", data.replace(b"\n", b"\r\n")) == original

    def test_dates_a_century_later(self, tmp_path, letters):
        data, records = letters
        later = "".join(format_record_line(r._replace(
            compose_date=r.compose_date.replace(year=r.compose_date.year + 100),
            delivery_date=r.delivery_date.replace(year=r.delivery_date.year + 100))) + "\n"
            for r in records)
        original = self.outputs(tmp_path, "original", data)
        shifted = self.outputs(tmp_path, "later", later.encode())
        # a year label is four digits 2103..2112, not inside a longer number
        back = {k: re.sub(rb"(?<![\d.])21(0[3-9]|1[0-2])(?!\d)", rb"20\1", v)
                for k, v in shifted.items() if not k.startswith("stats/")}
        assert back == {k: v for k, v in original.items() if not k.startswith("stats/")}

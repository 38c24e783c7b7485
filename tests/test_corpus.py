from __future__ import annotations

import datetime as dt
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_record
from moodtrends.corpus import (REJECT_BAD_DATE, REJECT_BAD_ENCODING,
                               REJECT_BAD_FIELDS, REJECT_BAD_JSON,
                               REJECT_ORDER, delivery_histogram,
                               escape_body, filter_english,
                               format_record_line, load_word_list,
                               parse_corpus, unescape_body,
                               word_frequency)
from moodtrends.textproc import tokenize


def tsv_line(rec_id="a1", compose="2006-03-01", delivery="2016-03-01",
             body="hello"):
    return f"{rec_id}\t{compose}\t{delivery}\t{body}"


JSONL_TEMPLATE = ('{"id": "ID", "compose_date": "2006-05-05", '
                  '"delivery_date": "2008-01-02", "body": "BODY"}')

BOM = "\ufeff".encode()

# the longest record id, the csv module's default field size limit
LONGEST_ID = "x" * 131_072

# well-formed and near-miss lines mixed into the arbitrary-bytes property
LINE_SEEDS = [
    tsv_line().encode(), tsv_line(body="a\\b\\").encode(), b"\r", b"  \t ",
    tsv_line(rec_id="a\rb").encode(), tsv_line(compose="2020-01-01").encode(),
    JSONL_TEMPLATE.encode(), JSONL_TEMPLATE.replace('"ID"', "null").encode(),
    b"[" * 2000, b"\xff\xfe",
    # rejected lines whose id breaks the id rule: a CR, a tab, a surrogate,
    # a NUL, one character too many
    b"a\rb\tx", b'{"id": "a\\tb"}', b'{"id": "a\\ud800", "body": 1}',
    JSONL_TEMPLATE.replace('"ID"', '"a\\ud800"').encode(),
    tsv_line(rec_id="a\0b").encode(), b'{"id": "a\\u0000b"}',
    tsv_line(rec_id=LONGEST_ID + "x").encode(),
]


def id_rule_holds(rec_id: str) -> bool:
    """Empty (a rejection's blanked id), or not blank with no NUL, tab or
    line break, encodable as UTF-8, and at most 131,072 characters."""
    if rec_id and not rec_id.strip():
        return False
    try:
        rec_id.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return not set(rec_id) & set("\0\t\r\n") and len(rec_id) <= len(LONGEST_ID)


class TestParseCorpus:
    def test_well_formed_single_record(self):
        data = tsv_line().encode()
        records, rejections = parse_corpus(data, fmt="tsv")
        assert rejections == []
        assert len(records) == 1
        rec = records[0]
        assert rec.id == "a1"
        assert rec.compose_date == dt.date(2006, 3, 1)
        assert rec.delivery_date == dt.date(2016, 3, 1)
        assert rec.body == "hello"
        assert 9.9 < rec.lag_years() < 10.1

    def test_delivery_before_compose_rejected(self):
        data = tsv_line(compose="2016-03-01", delivery="2006-03-01").encode()
        records, rejections = parse_corpus(data)
        assert records == []
        assert len(rejections) == 1
        assert rejections[0].code == REJECT_ORDER
        assert rejections[0].line_no == 1

    def test_bad_encoding_rejected(self):
        data = tsv_line().encode() + b"\n" + b"b2\t2006-01-01\t2007-01-01\t\xff\xfe broken"
        records, rejections = parse_corpus(data)
        assert len(records) == 1
        assert len(rejections) == 1
        assert rejections[0].code == REJECT_BAD_ENCODING
        assert rejections[0].line_no == 2

    def test_malformed_line_does_not_abort(self):
        # the id of a line with too few fields is trimmed like a record's
        data = b"only-two\tfields\n abc \tx\n" + tsv_line().encode()
        records, rejections = parse_corpus(data)
        assert len(records) == 1
        assert [(r.code, r.record_id) for r in rejections] == [
            (REJECT_BAD_FIELDS, "only-two"), (REJECT_BAD_FIELDS, "abc")]

    def test_bad_date(self):
        data = tsv_line(compose="not-a-date").encode()
        _, rejections = parse_corpus(data)
        assert rejections[0].code == REJECT_BAD_DATE

    def test_lines_sharing_date_strings(self):
        # a date string that parsed is reused by later lines; one that failed
        # is parsed again, so each of its lines is its own rejection
        bad = "2009-02-30"
        with pytest.raises(ValueError) as exc:
            dt.date.fromisoformat(bad)
        bodies = ["plain words", "tab\\there\\nand \\\\ a \\q", "trailing \\"]
        lines = [tsv_line("a1", delivery=" 2009-01-01 ", body=bodies[0]),
                 tsv_line("b1", compose=bad),
                 tsv_line("a2", delivery="2009-01-01", body=bodies[1]),
                 tsv_line("b2", delivery=bad),
                 tsv_line("a3", delivery=" 2009-01-01 ", body=bodies[2]),
                 tsv_line("b3", compose=bad, delivery=bad)]
        records, rejections = parse_corpus("\n".join(lines).encode())
        assert rejections == [(line_no, rec_id, REJECT_BAD_DATE, str(exc.value))
                              for line_no, rec_id in [(2, "b1"), (4, "b2"), (6, "b3")]]
        assert [(r.id, r.compose_date, r.delivery_date, r.body) for r in records] == [
            (f"a{i}", dt.date(2006, 3, 1), dt.date(2009, 1, 1), unescape_body(body))
            for i, body in enumerate(bodies, start=1)]

    def test_jsonl_roundtrip(self):
        obj = {"id": "j1", "compose_date": "2006-05-05",
               "delivery_date": "2008-01-02", "body": "see you\nlater"}
        records, rejections = parse_corpus(json.dumps(obj).encode(), fmt="jsonl")
        assert rejections == []
        assert records[0].body == "see you\nlater"

    def test_jsonl_bad_json_and_missing_fields(self):
        data = b'{"id": "x"}\nnot json at all'
        records, rejections = parse_corpus(data, fmt="jsonl")
        assert records == []
        assert rejections[0].code == REJECT_BAD_FIELDS
        assert rejections[1].code == REJECT_BAD_JSON

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            parse_corpus(b"", fmt="xml")

    def test_text_mode_input_rejected(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(tsv_line() + "\n")
        with open(p, "r") as fh:
            with pytest.raises(TypeError, match="rb"):
                parse_corpus(fh)

    def test_body_escaping_roundtrip(self):
        body = "line one\nline two\ttabbed \\ backslash"
        rec = make_record(body)
        line = format_record_line(rec)
        assert "\n" not in line.split("\t", 3)[3]
        records, rejections = parse_corpus(line.encode())
        assert rejections == []
        assert records[0].body == body

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_escape_unescape_inverse(self, body):
        assert unescape_body(escape_body(body)) == body

    def test_deterministic(self):
        data = (tsv_line() + "\nbroken\n" + tsv_line(rec_id="z9")).encode()
        assert parse_corpus(data) == parse_corpus(data)

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_crlf_parses_like_lf(self, fmt):
        lines = [tsv_line(body="tab\\there"), tsv_line(rec_id="b2", compose="x"), ""]
        if fmt == "jsonl":
            lines = [json.dumps({"id": "j1", "compose_date": "2006-05-05",
                                 "delivery_date": "2008-01-02", "body": "a\nb"}),
                     '{"id": "j2"}', ""]
        lf = "\n".join(lines).encode()
        crlf = lf.replace(b"\n", b"\r\n")
        records, rejections = parse_corpus(crlf, fmt=fmt)
        assert (records, rejections) == parse_corpus(lf, fmt=fmt)
        assert len(records) == 1 and len(rejections) == 1

    @pytest.mark.parametrize("fmt,line", [
        ("jsonl", JSONL_TEMPLATE.replace('"ID"', "null")),
        ("jsonl", JSONL_TEMPLATE.replace('"ID"', "7")),
        ("jsonl", JSONL_TEMPLATE.replace('"ID"', '""')),
        ("jsonl", JSONL_TEMPLATE.replace('"ID"', '"a\\rb"')),
        ("jsonl", JSONL_TEMPLATE.replace('"ID"', '"ok"').replace('"BODY"', "null")),
        ("jsonl", JSONL_TEMPLATE.replace('"ID"', '"a\\ud800"')),
        ("tsv", tsv_line(rec_id="a\rb")),
        ("jsonl", JSONL_TEMPLATE.replace('"ID"', '"a\\u0000b"')),
        ("tsv", tsv_line(rec_id="a\0b")),
        ("jsonl", JSONL_TEMPLATE.replace("ID", LONGEST_ID + "x")),
        ("tsv", tsv_line(rec_id=LONGEST_ID + "x")),
    ], ids=["null-id", "int-id", "empty-id", "cr-id", "null-body", "surrogate-id",
            "tsv-cr-id", "nul-id", "tsv-nul-id", "long-id", "tsv-long-id"])
    def test_bad_id_or_non_string_field_rejected(self, fmt, line):
        records, rejections = parse_corpus(line.encode(), fmt=fmt)
        assert records == []
        assert [(r.line_no, r.code) for r in rejections] == [(1, REJECT_BAD_FIELDS)]
        assert id_rule_holds(rejections[0].record_id)

    @pytest.mark.parametrize("fmt,line", [
        *(("jsonl", json.dumps({"id": blank, **fields}))
          for blank in (" ", "\u3000")
          for fields in ({"compose_date": "2006-01-01"},
                         {"compose_date": "2006-01-01", "delivery_date": "2008-01-01",
                          "body": 7},
                         {"compose_date": "2006-13-01", "delivery_date": "2008-01-01",
                          "body": "hello"})),
        ("tsv", " \t2006-01-01\t2008-01-01"),
    ], ids=["space-missing", "space-non-string", "space-bad-date", "ideographic-missing",
            "ideographic-non-string", "ideographic-bad-date", "tsv-field-count"])
    def test_blank_id_reported_empty_whatever_fails_first(self, fmt, line):
        records, rejections = parse_corpus(line.encode(), fmt=fmt)
        assert records == []
        assert [r.record_id for r in rejections] == [""]

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_longest_id_kept(self, fmt):
        line = (tsv_line(rec_id=LONGEST_ID) if fmt == "tsv" else
                JSONL_TEMPLATE.replace("ID", LONGEST_ID))
        records, rejections = parse_corpus(line.encode(), fmt=fmt)
        assert rejections == []
        assert [r.id for r in records] == [LONGEST_ID]

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    @pytest.mark.parametrize("field", ["compose", "delivery"])
    @pytest.mark.parametrize("date", ["20240101", "2024W011", "2030-W01-1",
                                      "2024-1-01", "\uff12\uff10\uff12\uff14-01-01",
                                      "2009-02-30"])
    def test_only_yyyy_mm_dd_dates_accepted(self, fmt, field, date):
        dates = {"compose": "2006-03-01", "delivery": "2031-01-01", field: date}
        line = (tsv_line(compose=dates["compose"], delivery=dates["delivery"])
                if fmt == "tsv" else
                json.dumps({"id": "a1", "compose_date": dates["compose"],
                            "delivery_date": dates["delivery"], "body": "hello"}))
        records, rejections = parse_corpus(line.encode(), fmt=fmt)
        assert records == []
        assert [(r.line_no, r.record_id, r.code) for r in rejections] == \
            [(1, "a1", REJECT_BAD_DATE)]

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_dates_with_surrounding_spaces_accepted(self, fmt):
        line = (tsv_line(compose=" 2024-01-01 ", delivery="2030-06-15 ")
                if fmt == "tsv" else
                json.dumps({"id": "a1", "compose_date": " 2024-01-01 ",
                            "delivery_date": " 2030-06-15\t", "body": "hello"}))
        records, rejections = parse_corpus(line.encode(), fmt=fmt)
        assert rejections == []
        assert (records[0].compose_date, records[0].delivery_date) == \
            (dt.date(2024, 1, 1), dt.date(2030, 6, 15))

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_leading_bom_skipped(self, fmt):
        lines = ([tsv_line(rec_id=i).encode() for i in ("a1", "a2")] if fmt == "tsv" else
                 [JSONL_TEMPLATE.replace("ID", i).encode() for i in ("a1", "a2")])
        plain = b"\n".join(lines)
        assert parse_corpus(BOM + plain, fmt=fmt) == parse_corpus(plain, fmt=fmt)
        # only line 1 may start with one: a second BOM stays in the id
        records, rejections = parse_corpus(BOM + b"\n".join(BOM + line for line in lines),
                                           fmt=fmt)
        if fmt == "tsv":
            assert [r.id for r in records] == ["\ufeffa1", "\ufeffa2"]
        else:
            assert [(r.line_no, r.code) for r in rejections] == [
                (1, REJECT_BAD_JSON), (2, REJECT_BAD_JSON)]

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_bom_before_blank_first_line_skipped(self, fmt, eol):
        line = (tsv_line() if fmt == "tsv" else JSONL_TEMPLATE).encode()
        for blank in (b"", b"  \t", b"\r"):
            data = eol.join([blank, line, line])
            assert parse_corpus(BOM + data, fmt=fmt) == parse_corpus(data, fmt=fmt)
            assert len(parse_corpus(BOM + data, fmt=fmt)[0]) == 2
        assert parse_corpus(BOM, fmt=fmt) == parse_corpus(BOM + eol, fmt=fmt) == ([], [])

    @pytest.mark.parametrize("bad", [b"[" * 100000, b'{"id": ' + b"1" * 5000 + b"}"],
                             ids=["deep-nesting", "huge-int"])
    def test_json_the_decoder_refuses_rejected(self, bad):
        good = JSONL_TEMPLATE.replace('"ID"', '"ok"').encode()
        records, rejections = parse_corpus(bad + b"\n" + good, fmt="jsonl")
        assert [r.id for r in records] == ["ok"]
        assert [(r.line_no, r.code) for r in rejections] == [(1, REJECT_BAD_JSON)]

    @given(st.lists(st.one_of(st.binary(max_size=60), st.sampled_from(LINE_SEEDS)),
                    max_size=8),
           st.sampled_from([b"\n", b"\r\n"]), st.sampled_from(["tsv", "jsonl"]))
    @settings(max_examples=300)
    # a line holding only a byte-order mark is blank on line 1, where the
    # mark is skipped, and a rejection on any later line
    @example([BOM, BOM + tsv_line().encode()], b"\n", "tsv")
    @example([BOM, JSONL_TEMPLATE.encode(), BOM], b"\r\n", "jsonl")
    # a blank id on a line that fails before the id check is reported as ""
    @example([b'{"id": " ", "compose_date": "2006-01-01"}'], b"\n", "jsonl")
    def test_every_non_blank_line_accounted_for(self, lines, eol, fmt):
        data = eol.join(lines)
        records, rejections = parse_corpus(data, fmt=fmt)
        non_blank = sum(1 for line in data.removeprefix(BOM).split(b"\n") if line.strip())
        assert len(records) + len(rejections) == non_blank
        for rec in records:
            assert rec.id.strip() and id_rule_holds(rec.id)
            assert rec.delivery_date >= rec.compose_date
        for rej in rejections:
            assert id_rule_holds(rej.record_id)


def old_unescape_body(text: str) -> str:
    """The character-loop decoder the regex codec replaced; the reference."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "t":
                out.append("\t")
            elif nxt == "n":
                out.append("\n")
            elif nxt == "r":
                out.append("\r")
            elif nxt == "\\":
                out.append("\\")
            else:
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


@given(st.text(st.one_of(st.sampled_from("\\\\tnr\n"), st.characters()), max_size=80))
@settings(max_examples=500)
def test_unescape_matches_character_loop(text):
    assert unescape_body(text) == old_unescape_body(text)


class TestFilterEnglish:
    def test_clearly_english_kept(self):
        rec = make_record("I hope you will remember the things that happened")
        result = filter_english([rec], threshold=0.15)
        assert result.kept == [rec]
        assert result.rejected == []
        assert result.flagged_short == []

    def test_german_rejected_with_zero_ratio(self):
        body = "der die das und aber nicht heute morgen"
        words = load_word_list("function_words")
        tokens = body.split()
        ratio = sum(1 for t in tokens if t in words) / len(tokens)
        assert ratio == 0.0
        result = filter_english([make_record(body)], threshold=0.15)
        assert result.kept == []
        assert len(result.rejected) == 1

    def test_empty_body_kept_and_flagged(self):
        rec = make_record("")
        result = filter_english([rec])
        assert result.kept == [rec]
        assert result.flagged_short == [rec.id]

    def test_short_record_kept_and_flagged(self):
        rec = make_record("vier worte nur hier")
        result = filter_english([rec])
        assert result.kept == [rec]
        assert result.flagged_short == [rec.id]

    def test_function_word_list_size(self):
        assert len(set(load_word_list("function_words"))) >= 100

    @given(st.lists(st.sampled_from([
        "I hope you will be happy and well",
        "der die das und aber nicht heute morgen",
        "short one",
        "mi lugar favorito es la playa cerca del mar",
        "we could not have known what the future holds",
    ]), max_size=12))
    @settings(max_examples=100)
    def test_partition_property(self, bodies):
        records = [make_record(b, rec_id=f"r{i}") for i, b in enumerate(bodies)]
        result = filter_english(records)
        assert len(result.kept) + len(result.rejected) == len(records)
        kept_ids = {r.id for r in result.kept}
        rejected_ids = {r.id for r in result.rejected}
        assert kept_ids | rejected_ids == {r.id for r in records}
        assert kept_ids & rejected_ids == set()

    @given(st.lists(st.sampled_from([
        "I hope you will be happy and well",
        "der die das und aber nicht heute morgen",
        "short one",
        "",
        "Ich hoffe, dass du glücklich bist und es dir gut geht",
        "we could not have known what the future holds",
    ]), max_size=12), st.sampled_from([0.0, 0.15, 0.5, 1.0]))
    @example(["I hope you will be happy and well", "short one",
              "der die das und aber nicht heute morgen"], 0.15)
    @settings(max_examples=100)
    def test_on_kept_sees_each_kept_record_once_with_its_tokens(self, bodies, threshold):
        records = [make_record(b, rec_id=f"r{i}") for i, b in enumerate(bodies)]
        events, seen = [], []

        def feed():
            for rec in records:
                events.append(("read", rec.id))
                yield rec

        def on_kept(rec, tokens):
            events.append(("kept", rec.id))
            seen.append((rec, tokens))

        result = filter_english(feed(), threshold, on_kept=on_kept)
        assert result == filter_english(records, threshold)
        # kept records, short-flagged ones included, in input order
        assert seen == [(rec, tokenize(rec.body)) for rec in result.kept]
        # each callback comes right after its record is read and judged,
        # before the next record is read
        kept_ids = {rec.id for rec in result.kept}
        assert events == [e for rec in records for e in
                          [("read", rec.id), ("kept", rec.id)][:1 + (rec.id in kept_ids)]]


class TestWordFrequency:
    def test_constructed_fixture(self):
        records = [make_record("dear dear hope"), make_record("dear hope love")]
        assert word_frequency(records, top_n=3) == [
            ("dear", 3), ("hope", 2), ("love", 1)]

    def test_tie_break_lexicographic(self):
        records = [make_record("beta alpha beta alpha")]
        assert word_frequency(records, top_n=2) == [
            ("alpha", 2), ("beta", 2)]

    def test_top_n_zero(self):
        assert word_frequency([make_record("a b c")], top_n=0) == []

    def test_stopwords_excluded(self):
        records = [make_record("the the the dear")]
        assert word_frequency(records, top_n=5) == [("dear", 1)]
        assert "the" in load_word_list("stopwords")

    def test_counts_bounded_by_token_total(self):
        records = [make_record("dear hope dear"), make_record("love")]
        total_tokens = 4
        freq = word_frequency(records, top_n=10)
        assert sum(c for _, c in freq) <= total_tokens

    @given(st.lists(st.lists(st.sampled_from(
        ["the", "and", "of", "dear", "hope", "love", "alpha", "beta", "don't"]),
        max_size=12).map(" ".join), max_size=6),
        st.integers(min_value=0, max_value=12))
    @example(["the and of", "of the"], 3)  # bodies made only of stopwords
    @example(["beta alpha", "gamma"], 1)  # tied counts cut at top_n
    @example(["beta alpha beta alpha hope"], 9)  # top_n over the distinct words
    @example(["dear hope"], 0)
    @settings(max_examples=200)
    def test_matches_full_sort_reference(self, bodies, top_n):
        stopwords = set(load_word_list("stopwords"))
        counts = Counter(t for b in bodies for t in tokenize(b) if t not in stopwords)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        records = [make_record(b, rec_id=f"r{i}") for i, b in enumerate(bodies)]
        assert word_frequency(records, top_n) == ranked[:top_n]


class TestDeliveryHistogram:
    def test_per_year_counts(self):
        records = [
            make_record("x", rec_id="a", delivery="2007-06-01"),
            make_record("x", rec_id="b", delivery="2007-11-30"),
            make_record("x", rec_id="c", delivery="2010-01-01"),
        ]
        per_year, _ = delivery_histogram(records)
        assert list(per_year.items()) == [(2007, 2), (2010, 1)]
        assert sum(per_year.values()) == len(records)

    def test_lag_exactly_one_year(self):
        rec = make_record("x", compose="2006-01-01", delivery="2007-01-01")
        _, mean_lag = delivery_histogram([rec])
        assert mean_lag[2006] == pytest.approx(1.0, abs=1e-12)

    def test_empty_corpus(self):
        assert delivery_histogram([]) == ({}, {})

    def test_permutation_invariance(self):
        records = [make_record("x", rec_id=f"r{i}",
                               delivery=f"20{10 + i % 3}-05-01")
                   for i in range(12)]
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        assert (list(delivery_histogram(records)[0].items())
                == list(delivery_histogram(shuffled)[0].items()))

    # lags are differences of decimal years, so multiples of the ulp at the
    # compose year; sums only round once they pass about 2**11 years, hence
    # lags of up to 8,000 years from compose years near 1000
    @given(st.lists(st.tuples(st.dates(dt.date(1000, 1, 1), dt.date(1001, 12, 31)),
                              st.integers(0, 8000 * 365)), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    @example([(dt.date(1001, 1, 1), d) for d in (53, 373956, 5)], random.Random(0))
    @settings(max_examples=200, deadline=None)
    def test_mean_lag_unchanged_by_record_order(self, dates, rnd):
        records = [make_record("x", rec_id=f"r{i}", compose=c.isoformat(),
                               delivery=(c + dt.timedelta(days=d)).isoformat())
                   for i, (c, d) in enumerate(dates)]
        _, mean_lag = delivery_histogram(records)
        _, shuffled = delivery_histogram(rnd.sample(records, len(records)))
        assert list(mean_lag) == sorted({c.year for c, _ in dates})
        assert ({y: m.hex() for y, m in mean_lag.items()}
                == {y: m.hex() for y, m in shuffled.items()})

    def test_mean_lag_nonnegative_and_keyed_by_origin(self):
        records = [
            make_record("x", rec_id="a", compose="2006-06-01", delivery="2006-06-01"),
            make_record("x", rec_id="b", compose="2005-01-01", delivery="2006-01-01"),
        ]
        _, mean_lag = delivery_histogram(records)
        assert list(mean_lag) == [2005, 2006]
        assert all(v >= 0 for v in mean_lag.values())

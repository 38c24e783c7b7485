"""Corpus ingestion: parse and validate record files, filter non-English
documents, and compute descriptive statistics.

Record file formats
-------------------
tsv (delimited records, the native format)::

    id<TAB>compose_date<TAB>delivery_date<TAB>body

  Dates are exactly YYYY-MM-DD in ASCII digits. The body is
  backslash-escaped: ``\\t``, ``\\n``, ``\\r``, ``\\\\``. One record per
  line; the id is trimmed.

jsonl (one JSON object per line)::

    {"id": ..., "compose_date": "YYYY-MM-DD", "delivery_date": ..., "body": ...}

  All four values must be JSON strings.

In both formats a record id is non-empty, holds no NUL, tab or line break,
encodes as UTF-8 (no lone surrogate) and is at most 131,072 characters long,
so it fits on one line of every output file and in one field that the csv
module reads back. A rejection report carries the line's id only when it
keeps that rule, and an empty id otherwise. Lines end at LF or CRLF, and a
leading UTF-8 byte-order mark is skipped.

Malformed lines never abort a parse; each produces a rejection report with
its line number and a stable reason code.
"""

from __future__ import annotations

import datetime as dt
import heapq
import io
import json
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import BinaryIO, Iterable

from .textproc import tokenize

FORMATS = ("tsv", "jsonl")  # the record file formats above, by name
DEFAULT_ENGLISH_THRESHOLD = 0.15
MIN_TOKENS_TO_JUDGE = 5

REJECT_BAD_ENCODING = "unknown-character-encoding"
REJECT_BAD_FIELDS = "malformed-record"
REJECT_BAD_DATE = "invalid-date"
REJECT_BAD_JSON = "invalid-json"
REJECT_ORDER = "delivery-precedes-compose"


@dataclass(frozen=True)
class EmailRecord:
    """One document: when it was written, when it is due, and its text."""

    id: str
    compose_date: dt.date
    delivery_date: dt.date
    body: str

    @property
    def delivery_year(self) -> int:
        return self.delivery_date.year

    def lag_years(self) -> float:
        """Delivery minus compose date in fractional (decimal) years."""
        return _decimal_year(self.delivery_date) - _decimal_year(self.compose_date)


def _decimal_year(d: dt.date) -> float:
    start = dt.date(d.year, 1, 1)
    days = 366 if d.year % 4 == 0 and (d.year % 100 != 0 or d.year % 400 == 0) else 365
    return d.year + (d.toordinal() - start.toordinal()) / days


@dataclass(frozen=True)
class RejectionReport:
    line_no: int
    record_id: str
    code: str
    detail: str = ""


_ESCAPE_TABLE = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)
_UNESCAPES = {"t": "\t", "n": "\n", "r": "\r"}
_JSON_KEYS = ("id", "compose_date", "delivery_date", "body")
# what a record id may not hold: a NUL, a tab, a line break or a lone surrogate
_BAD_ID = re.compile("[\0\t\r\n\ud800-\udfff]")
# the csv module's default field size limit, so scores.csv reads every id back
_MAX_ID_CHARS = 131_072
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def escape_body(body: str) -> str:
    return body.translate(_ESCAPE_TABLE)


def unescape_body(text: str) -> str:
    """Inverse of escape_body: ``\\t``, ``\\n`` and ``\\r`` become control
    characters, any other escaped character stands for itself, and a trailing
    lone backslash is kept."""
    return _ESCAPED.sub(lambda m: _UNESCAPES.get(m[1], m[1]), text)


def format_record_line(rec: EmailRecord) -> str:
    return (f"{rec.id}\t{rec.compose_date.isoformat()}"
            f"\t{rec.delivery_date.isoformat()}\t{escape_body(rec.body)}")


class _Rejected(Exception):
    """A line's rejection; args are (record_id, code, detail), the
    RejectionReport fields after line_no."""


def _fields(line: str, fmt: str) -> tuple[str, str, str, str]:
    """(id, compose, delivery, body) of one decoded line of either format."""
    if fmt == "tsv":
        parts = line.split("\t")
        rec_id = parts[0].strip()
        if len(parts) != 4:
            raise _Rejected(rec_id, REJECT_BAD_FIELDS,
                            f"expected 4 tab-separated fields, got {len(parts)}")
        return rec_id, parts[1], parts[2], unescape_body(parts[3])
    try:
        obj = json.loads(line)
    # ValueError covers JSONDecodeError and integer literals over the
    # int-to-str digit limit; RecursionError comes from deep nesting
    except (ValueError, RecursionError) as exc:
        raise _Rejected("", REJECT_BAD_JSON, str(exc)) from None
    if not isinstance(obj, dict):
        raise _Rejected("", REJECT_BAD_JSON, "line is not a JSON object")
    rec_id = obj.get("id")
    rec_id = rec_id if isinstance(rec_id, str) else ""
    missing = [k for k in _JSON_KEYS if k not in obj]
    if missing:
        raise _Rejected(rec_id, REJECT_BAD_FIELDS, f"missing fields: {', '.join(missing)}")
    not_strings = [k for k in _JSON_KEYS if not isinstance(obj[k], str)]
    if not_strings:
        raise _Rejected(rec_id, REJECT_BAD_FIELDS,
                        f"fields are not strings: {', '.join(not_strings)}")
    return obj["id"], obj["compose_date"], obj["delivery_date"], obj["body"]


def _bad_id(rec_id: str) -> bool:
    return len(rec_id) > _MAX_ID_CHARS or _BAD_ID.search(rec_id) is not None


def _date(text: str) -> dt.date:
    """A stripped YYYY-MM-DD date; fromisoformat alone also takes the basic
    and week forms on Python 3.11+."""
    text = text.strip()
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def _parse_line(raw_line: bytes, fmt: str) -> EmailRecord:
    try:
        line = raw_line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Rejected("", REJECT_BAD_ENCODING, str(exc)) from None
    rec_id, compose, delivery, body = _fields(line, fmt)
    if not rec_id.strip():
        raise _Rejected("", REJECT_BAD_FIELDS, "empty record id")
    if _bad_id(rec_id):
        raise _Rejected("", REJECT_BAD_FIELDS, "record id contains a NUL, a tab, a line "
                        f"break or a lone surrogate, or is over {_MAX_ID_CHARS} characters")
    try:
        compose_date, delivery_date = _date(compose), _date(delivery)
    except ValueError as exc:
        raise _Rejected(rec_id, REJECT_BAD_DATE, str(exc)) from None
    if delivery_date < compose_date:
        raise _Rejected(rec_id, REJECT_ORDER, "delivery precedes compose")
    return EmailRecord(id=rec_id, compose_date=compose_date,
                       delivery_date=delivery_date, body=body)


def parse_corpus(data: bytes | BinaryIO,
                 fmt: str = "tsv") -> tuple[list[EmailRecord], list[RejectionReport]]:
    """Parse a byte stream into records plus per-line rejection reports.

    fmt is "tsv" (delimited records) or "jsonl" (one JSON object per line).
    Lines end at ``\\n``; one ``\\r`` before it is dropped, so CRLF files
    parse like LF files, and one UTF-8 byte-order mark is dropped from the
    start of line 1. The stream is read one line at a time. Undecodable
    lines are rejected with the unknown-character-encoding code; the parse
    itself never raises on malformed content.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r}")
    if isinstance(data, io.TextIOBase):
        raise TypeError("parse_corpus expects bytes or a binary stream; "
                        "open corpus files with mode 'rb'")
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    records: list[EmailRecord] = []
    rejections: list[RejectionReport] = []
    for line_no, raw_line in enumerate(stream, 1):
        if not raw_line.strip():
            continue
        raw_line = raw_line.removesuffix(b"\n").removesuffix(b"\r")
        if line_no == 1:
            raw_line = raw_line.removeprefix(b"\xef\xbb\xbf")
        try:
            records.append(_parse_line(raw_line, fmt))
        except _Rejected as rej:
            rec_id, code, detail = rej.args
            rejections.append(RejectionReport(
                line_no, "" if _bad_id(rec_id) else rec_id, code, detail))
    return records, rejections


def parse_corpus_file(path, fmt: str = "tsv"):
    with open(path, "rb") as fh:
        return parse_corpus(fh, fmt=fmt)


def load_word_list(name: str) -> list[str]:
    """Words of the bundled ``data/<name>.txt`` in file order, one per line;
    blank lines and ``#`` comment lines are skipped."""
    text = resources.files("moodtrends.data").joinpath(f"{name}.txt").read_text("utf-8")
    return [w.strip() for w in text.splitlines() if w.strip() and not w.startswith("#")]


@dataclass
class FilterResult:
    kept: list[EmailRecord]
    rejected: list[EmailRecord]
    flagged_short: list[str]


def filter_english(records: Iterable[EmailRecord],
                   threshold: float = DEFAULT_ENGLISH_THRESHOLD) -> FilterResult:
    """Partition records by function-word ratio.

    A record is kept when (function-word tokens / total tokens) >= threshold,
    counting the bundled ``data/function_words.txt`` list.
    Records with fewer than five tokens are too short to judge; they are kept
    and their ids flagged. kept + rejected is always the full input.
    """
    function_words = frozenset(load_word_list("function_words"))
    kept: list[EmailRecord] = []
    rejected: list[EmailRecord] = []
    flagged: list[str] = []
    for rec in records:
        tokens = tokenize(rec.body)
        if len(tokens) < MIN_TOKENS_TO_JUDGE:
            kept.append(rec)
            flagged.append(rec.id)
            continue
        hits = sum(map(function_words.__contains__, tokens))
        if hits / len(tokens) >= threshold:
            kept.append(rec)
        else:
            rejected.append(rec)
    return FilterResult(kept=kept, rejected=rejected, flagged_short=flagged)


def word_frequency(records: Iterable[EmailRecord], top_n: int) -> list[tuple[str, int]]:
    """Top-N non-stopword surface tokens by raw occurrence count.

    Ties break toward ascending lexicographic order.
    """
    stopwords = frozenset(load_word_list("stopwords"))
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(tokenize(rec.body))
    for word in stopwords & counts.keys():
        del counts[word]
    return heapq.nsmallest(top_n, counts.items(), key=lambda kv: (-kv[1], kv[0]))


def delivery_histogram(records: Iterable[EmailRecord]
                       ) -> tuple[dict[int, int], dict[int, float]]:
    """(per-delivery-year counts, per-origin-year mean lag in fractional
    years), both in ascending year order; empty for no records."""
    per_year: Counter[int] = Counter()
    lag_sum: dict[int, float] = {}
    lag_n: Counter[int] = Counter()
    for rec in records:
        per_year[rec.delivery_year] += 1
        oy = rec.compose_date.year
        lag_sum[oy] = lag_sum.get(oy, 0.0) + rec.lag_years()
        lag_n[oy] += 1
    return ({y: per_year[y] for y in sorted(per_year)},
            {y: lag_sum[y] / lag_n[y] for y in sorted(lag_sum)})

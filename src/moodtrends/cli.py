"""Command-line pipeline: ``stats``, ``score``, ``analyze``, ``synth`` and
``stem`` subcommands over the corpus -> lexicon -> scoring -> statistics
chain.

Exit codes: 0 success, 1 usage/config error, 2 data validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from . import corpus as corpus_mod
from . import scoring, stats, svg, synth
from .config import (KEY_TYPES, ConfigError, PipelineConfig, apply_overrides,
                     parse_kv_file)
from .corpus import parse_corpus_file
from .lexicon import (SCALES, LexiconError, compile_lexicon, load_default_lexicon,
                      load_lexicon_file)
from .scoring import ScoredRecord, YearBucket, bucket_scores
from .textproc import porter_stem, tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the CLI contract reserves 2 for
    # data errors, so route usage problems through exit code 1 instead
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise UsageError(message)


@contextlib.contextmanager
def _reading(what: str, path, error: type[Exception] = DataError):
    """Guard for every input file: a missing, unreadable or non-UTF-8 file
    becomes one ``cannot read`` error (DataError, or ConfigError for the
    config file)."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise error(f"cannot read {what} {path}: {reason}") from None


@contextlib.contextmanager
def _replacing(path: Path):
    """Writer for every output file: a text handle on the hidden sibling
    ``.<name>.tmp`` (parent directories are made as needed), moved onto path
    when the block ends. path holds either its old bytes or all of the new
    ones; the temp file never outlives the block. A failed write is a
    UsageError, since every output path comes from a flag or config value;
    when the parent directory cannot be made, it names that directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: cannot make directory "
                         f"{exc.filename}: {exc.strerror or exc}") from None
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with _replacing(path) as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    if args.config:
        with _reading("config", args.config, ConfigError):
            apply_overrides(cfg, parse_kv_file(args.config))
    apply_overrides(cfg, {k: v for k, v in vars(args).items() if k in KEY_TYPES})
    cfg.validate()
    return cfg


def _load_records(cfg: PipelineConfig):
    if not cfg.corpus_path:
        raise UsageError("no corpus path given (flag --corpus or config corpus_path)")
    with _reading("corpus", cfg.corpus_path):
        return parse_corpus_file(cfg.corpus_path, fmt=cfg.corpus_format)


def _load_lexicon(path):
    with _reading("lexicon", path):
        return load_lexicon_file(path)


def _load_matcher(cfg: PipelineConfig):
    if not cfg.lexicon_path:
        raise UsageError("no lexicon path given (flag --lexicon or config lexicon_path)")
    matcher = compile_lexicon(_load_lexicon(cfg.lexicon_path))
    for w in matcher.warnings:
        print(f"lexicon-warning\tstem-collision\t{w.term}\t{w.colliding_term}\t"
              f"{' '.join(w.sequence)}", file=sys.stderr)
    return matcher


def _score_chain(cfg: PipelineConfig):
    """parse -> filter -> score; returns the parsed records, the rejections,
    the language filter result and the scored kept records in the year window."""
    records, rejections = _load_records(cfg)
    matcher = _load_matcher(cfg)
    filtered = corpus_mod.filter_english(records, threshold=cfg.english_threshold)
    rows = [scoring.score_record(rec, matcher) for rec in filtered.kept
            if cfg.in_range(rec.delivery_year)]
    return records, rejections, filtered, rows


def _buckets_json(buckets: dict[int, YearBucket]) -> dict:
    out = {}
    for year, b in buckets.items():
        mean = b.mean_vector()
        out[str(year)] = {
            "year": year,
            "count": len(b.vectors),
            "zero_match_count": b.zero_match_count,
            "mean_vector": None if mean is None else [repr(c) for c in mean],
        }
    return out


def cmd_stats(args: argparse.Namespace) -> None:
    cfg = _build_config(args)
    records, rejections = _load_records(cfg)
    out_dir = Path(cfg.output_dir)
    per_year, mean_lag = corpus_mod.delivery_histogram(records)
    if not records:
        print("warning: corpus is empty", file=sys.stderr)

    _write_lines(out_dir / "histogram.csv", [
        "delivery_year,count", *(f"{y},{c}" for y, c in per_year.items())])
    _write_lines(out_dir / "mean_lag.csv", [
        "origin_year,mean_lag_years", *(f"{y},{v:.6g}" for y, v in mean_lag.items())])
    freq = corpus_mod.word_frequency(records, top_n=cfg.top_n)
    _write_lines(out_dir / "wordfreq.csv", [
        "rank,word,count", *(f"{i},{w},{c}" for i, (w, c) in enumerate(freq, start=1))])
    summary = {
        "per_year_counts": {str(y): c for y, c in per_year.items()},
        "mean_lag_years": {str(y): v for y, v in mean_lag.items()},
        "total_records": len(records),
        "rejected_encoding": sum(r.code == corpus_mod.REJECT_BAD_ENCODING
                                 for r in rejections),
    }
    _write_lines(out_dir / "stats.json", [json.dumps(summary, indent=2, sort_keys=True)])

    print(f"records: {len(records)}  rejected lines: {len(rejections)}  "
          f"years: {len(per_year)}")


SCORES_HEADER = ["id", "delivery_year", *(s.value for s in SCALES), "match_count"]


def cmd_score(args: argparse.Namespace) -> None:
    cfg = _build_config(args)
    records, rejections, filtered, rows = _score_chain(cfg)
    buckets = bucket_scores(rows)
    out_dir = Path(cfg.output_dir)

    # str() of a float is its shortest round-trip repr, so analyze --scores
    # reads back exactly the vectors inline analysis uses; a zero-match row
    # prints its components as 0
    with _replacing(out_dir / "scores.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORES_HEADER)
        for sc in rows:
            writer.writerow([sc.id, sc.delivery_year,
                             *(c if sc.match_count else 0 for c in sc.components),
                             sc.match_count])
    _write_lines(out_dir / "buckets.json",
                 [json.dumps(_buckets_json(buckets), indent=2, sort_keys=True)])
    _write_lines(out_dir / "rejections.txt", (
        f"{line_no}\t{rec_id}\t{code}\t{detail}" for line_no, rec_id, code, detail in [
            *((r.line_no, r.record_id, r.code, r.detail) for r in rejections),
            *(("-", rec.id, "non-english", "") for rec in filtered.rejected),
            *(("-", rid, "short-flagged", "") for rid in filtered.flagged_short)]))

    zero_total = sum(b.zero_match_count for b in buckets.values())
    print(f"parsed: {len(records)}  rejected lines: {len(rejections)}  "
          f"non-english: {len(filtered.rejected)}  short-flagged: {len(filtered.flagged_short)}  "
          f"scored: {len(rows)}  zero-match: {zero_total}")


def _read_scores_csv(path) -> list[ScoredRecord]:
    with _reading("scores", path):
        reader = csv.reader(io.StringIO(Path(path).read_bytes().decode("utf-8-sig"), newline=""))
    try:
        header = next(reader, [])
        if header != SCORES_HEADER:
            raise DataError(f"unexpected scores.csv header: {','.join(header)!r}")
        return [_scores_row(row) for row in reader if row]
    except (csv.Error, ValueError) as exc:
        raise DataError(f"bad scores.csv line {reader.line_num}: {exc}") from None


def _scores_row(row: list[str]) -> ScoredRecord:
    """One scores.csv row, held to what score can write: plain decimal year
    (1..9999) and match_count; components in [0, 1], all 0 iff match_count is 0."""
    if len(row) != len(SCORES_HEADER):
        raise ValueError(f"expected {len(SCORES_HEADER)} fields, got {len(row)}")
    components = tuple(float(v) for v in row[2:8])
    year, match_count = int(row[1]), int(row[8])
    if not (str(year) == row[1] and str(match_count) == row[8] and 1 <= year <= 9999):
        raise ValueError(f"delivery_year {row[1]!r} and match_count {row[8]!r} must be "
                         "plain decimals, the year in 1..9999")
    if not all(0.0 <= c <= 1.0 for c in components):  # nan fails this too
        raise ValueError(f"components not all in [0, 1]: {','.join(row[2:8])}")
    if match_count < 0:
        raise ValueError(f"negative match_count {match_count}")
    if (match_count > 0) != any(components):
        raise ValueError(f"match_count {match_count} disagrees with the components")
    return ScoredRecord(row[0], year, components, match_count)


def cmd_analyze(args: argparse.Namespace) -> None:
    cfg = _build_config(args)
    if args.scores:
        rows = [row for row in _read_scores_csv(args.scores)
                if cfg.in_range(row.delivery_year)]
    else:
        *_, rows = _score_chain(cfg)
    buckets = bucket_scores(rows)
    non_empty = [y for y, b in buckets.items() if b.vectors]
    if len(non_empty) < 2:
        raise DataError(f"need at least two non-empty year buckets, got {len(non_empty)}")

    out_dir = Path(cfg.output_dir)
    trends_possible = len(non_empty) >= 3
    if not trends_possible:
        print("warning: fewer than three non-empty years; trend fits skipped",
              file=sys.stderr)

    flagged_total = 0
    for dimension in SCALES:
        name = dimension.value
        matrix = stats.pairwise_ks(buckets, dimension,
                                   alpha_significant=cfg.alpha_significant,
                                   alpha_marginal=cfg.alpha_marginal)
        flagged_total += sum(f != stats.FLAG_NONE for f in matrix.flags.values())
        # cells and flags share one insertion order
        _write_lines(out_dir / f"ks_{name}.csv", [
            "year_a,year_b,dimension,d,p,flag",
            *(f"{ya},{yb},{name},{r.d_statistic:.6g},{r.p_value:.4f},{flag}"
              for ((ya, yb), r), flag in zip(matrix.cells.items(), matrix.flags.values()))])

        if trends_possible:
            trend = stats.build_trend(buckets, dimension)
            _write_lines(out_dir / f"trend_{name}.csv", [
                "year,raw_mean,z,fitted",
                *(f"{year},{raw:.6g},{z:.6g},{fitted:.6g}" for year, raw, z, fitted
                  in zip(trend.years, trend.raw_means, trend.z_scores, trend.fitted))])
            trend_json = {
                "dimension": name,
                "years": trend.years,
                "raw_means": [repr(v) for v in trend.raw_means],
                "z_scores": [repr(v) for v in trend.z_scores],
                "fit_coeffs": [repr(c) for c in trend.fit_coeffs],
                "fitted": [repr(v) for v in trend.fitted],
                "degenerate": trend.degenerate,
            }
            _write_lines(out_dir / f"trend_{name}.json",
                         [json.dumps(trend_json, indent=2)])
            if cfg.emit_svg:
                _write_lines(out_dir / f"trend_{name}.svg",
                             [svg.render_trend_svg(trend, matrix)])

    years_str = f"{min(non_empty)}-{max(non_empty)}"
    print(f"analyzed years: {years_str}  dimensions: {len(SCALES)}  "
          f"flagged pairs: {flagged_total}")


def cmd_synth(args: argparse.Namespace) -> None:
    lexicon = _load_lexicon(args.lexicon) if args.lexicon else load_default_lexicon()
    try:
        with _reading("synth spec", args.spec):
            pairs = parse_kv_file(args.spec)
        records = synth.generate_corpus(lexicon=lexicon, **synth.parse_synth_spec(pairs))
    except ValueError as exc:
        raise DataError(f"bad synth spec: {exc}") from exc
    out_path = Path(args.out)
    _write_lines(out_path, (corpus_mod.format_record_line(rec) for rec in records))
    years = sorted({r.delivery_year for r in records})
    print(f"wrote {len(records)} records over years {years[0]}-{years[-1]} "
          f"to {out_path}")


def cmd_stem(args: argparse.Namespace) -> None:
    for word in args.words:
        for token in tokenize(word):
            print(f"{token}\t{porter_stem(token)}")


# each pipeline subcommand: its help, the config keys it takes as flags and
# its handler; a flag's value is parsed only by apply_overrides and checked
# only by PipelineConfig.validate
_CORPUS_KEYS = ("corpus_path", "corpus_format", "output_dir")
_SCORE_KEYS = (*_CORPUS_KEYS, "lexicon_path", "english_threshold", "year_min", "year_max")
_PIPELINE = {
    "stats": ("corpus histogram and word table", (*_CORPUS_KEYS, "top_n"), cmd_stats),
    "score": ("score every document into mood vectors", _SCORE_KEYS, cmd_score),
    "analyze": ("pairwise KS tests and trend fits",
                (*_SCORE_KEYS, "alpha_significant", "alpha_marginal", "emit_svg"),
                cmd_analyze),
}
_FLAG_NAMES = {"corpus_path": "--corpus", "lexicon_path": "--lexicon"}


def build_parser() -> _Parser:
    parser = _Parser(prog="moodtrends",
                     description="Mood scoring and trend analysis over "
                                 "future-dated message corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, keys, func) in _PIPELINE.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        for key in keys:
            flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
            if KEY_TYPES[key] is bool:
                p.add_argument(flag, dest=key, action="store_const", const="true",
                               help=f"set config key {key}")
            else:
                p.add_argument(flag, dest=key, help=f"config key {key}")
        p.set_defaults(func=func)
    sub.choices["analyze"].add_argument(
        "--scores", help="reuse a scores.csv from a score run instead of scoring inline")

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--spec", required=True, help="synth spec file")
    p_synth.add_argument("--lexicon", default=None,
                         help="lexicon file (default: built-in lexicon)")
    p_synth.add_argument("--out", required=True, help="output corpus path")
    p_synth.set_defaults(func=cmd_synth)

    p_stem = sub.add_parser("stem", help="print stems for words")
    p_stem.add_argument("words", nargs="+")
    p_stem.set_defaults(func=cmd_stem)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, LexiconError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK

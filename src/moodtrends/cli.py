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
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from . import corpus as corpus_mod
from . import scoring, stats, svg, synth
from .config import (KEY_TYPES, ConfigError, PipelineConfig, apply_overrides,
                     parse_kv_file)
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


def _checked(path: Path) -> Path:
    """path, if a file can go there: it has a file name (not ``..``), is no
    directory, and its nearest existing ancestor is one. Every command checks
    its outputs so before it reads any input; a bad one is a UsageError."""
    if path.name in ("", ".."):
        raise UsageError(f"cannot write {path}: no file name")
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: Is a directory")
    nearest = next((d for d in path.parents if os.path.exists(d)), None)
    if nearest and not os.path.isdir(nearest):
        raise UsageError(f"cannot write {path}: cannot make directory {path.parent}: "
                         "Not a directory")
    return path


def _outputs(cfg: PipelineConfig, *names: str) -> dict[str, Path]:
    """Each named output file of cfg.output_dir by name, each one _checked."""
    return {name: _checked(Path(cfg.output_dir) / name) for name in names}


@contextlib.contextmanager
def _replacing(path: Path):
    """Writer for every output file, on a _checked path: a text handle on
    the hidden sibling ``.<name>.tmp`` (<name> cut to 250 bytes, to fit a
    255-byte name limit), moved onto path at the end, so path holds its old
    bytes or all of the new ones. Missing parents are made; a failed write is
    a UsageError and leaves neither the temp file nor a directory it made."""
    made = list(itertools.takewhile(lambda d: not os.path.exists(d), path.parents))
    tmp = path.with_name(os.fsdecode(b"." + os.fsencode(path.name)[:250] + b".tmp"))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        # made is deepest first and rmdir takes only an empty directory, so
        # after a write that succeeded the first rmdir fails and none goes
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
            for d in made:
                d.rmdir()


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with _replacing(path) as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    if args.config:
        with _reading("config", args.config, ConfigError):
            cfg = apply_overrides(cfg, parse_kv_file(args.config))
    cfg = apply_overrides(cfg, {k: v for k, v in vars(args).items() if k in KEY_TYPES})
    cfg.validate()
    return cfg


def _given(cfg: PipelineConfig, what: str) -> str:
    """cfg's corpus or lexicon path; a UsageError when none is given."""
    if not (path := getattr(cfg, f"{what}_path")):
        raise UsageError(f"no {what} path given (flag --{what} or config {what}_path)")
    return path


def _load_records(cfg: PipelineConfig):
    with _reading("corpus", _given(cfg, "corpus")):
        return corpus_mod.parse_corpus_file(cfg.corpus_path, fmt=cfg.corpus_format)


def _load_lexicon(path):
    with _reading("lexicon", path):
        return load_lexicon_file(path)


def _compile_lexicon(lexicon):
    """compile_lexicon, printing each of its stem-collision warnings to stderr."""
    matcher = compile_lexicon(lexicon)
    for w in matcher.warnings:
        print(f"lexicon-warning\tstem-collision\t{w.term}\t{w.colliding_term}\t"
              f"{' '.join(w.sequence)}", file=sys.stderr)
    return matcher


def _score_chain(cfg: PipelineConfig):
    """Both paths checked, the lexicon compiled, then parse -> filter -> score;
    returns the parsed records, the rejections, the language filter result
    and the scored kept records in the year window."""
    _given(cfg, "corpus")
    matcher = _compile_lexicon(_load_lexicon(_given(cfg, "lexicon")))
    records, rejections = _load_records(cfg)
    rows: list[ScoredRecord] = []

    # each kept body is tokenized once, by the filter, and scored from its
    # tokens right away, so only one document's tokens are held at a time
    def score_kept(rec, tokens) -> None:
        if cfg.in_range(rec.delivery_year):
            rows.append(scoring.score_record(rec, matcher, tokens))

    filtered = corpus_mod.filter_english(records, threshold=cfg.english_threshold,
                                         on_kept=score_kept)
    return records, rejections, filtered, rows


def _buckets_json(buckets: dict[int, YearBucket]) -> dict:
    return {str(year): {"year": year, "count": len(b.rows),
                        "zero_match_count": b.zero_match_count,
                        "mean_vector": [repr(b.mean(s)) for s in SCALES] if b.rows else None}
            for year, b in buckets.items()}


def cmd_stats(args: argparse.Namespace) -> None:
    cfg = _build_config(args)
    out = _outputs(cfg, "histogram.csv", "mean_lag.csv", "wordfreq.csv", "stats.json")
    records, rejections = _load_records(cfg)
    per_year, mean_lag = corpus_mod.delivery_histogram(records)
    if not records:
        print("warning: corpus is empty", file=sys.stderr)

    _write_lines(out["histogram.csv"], [
        "delivery_year,count", *(f"{y},{c}" for y, c in per_year.items())])
    _write_lines(out["mean_lag.csv"], [
        "origin_year,mean_lag_years", *(f"{y},{v:.6g}" for y, v in mean_lag.items())])
    freq = corpus_mod.word_frequency(records, top_n=cfg.top_n)
    _write_lines(out["wordfreq.csv"], [
        "rank,word,count", *(f"{i},{w},{c}" for i, (w, c) in enumerate(freq, start=1))])
    summary = {
        "per_year_counts": {str(y): c for y, c in per_year.items()},
        "mean_lag_years": {str(y): v for y, v in mean_lag.items()},
        "total_records": len(records),
        "rejected_encoding": sum(r.code == corpus_mod.REJECT_BAD_ENCODING
                                 for r in rejections),
    }
    _write_lines(out["stats.json"], [json.dumps(summary, indent=2, sort_keys=True)])

    print(f"records: {len(records)}  rejected lines: {len(rejections)}  "
          f"years: {len(per_year)}")


SCORES_HEADER = ["id", "delivery_year", *(s.value for s in SCALES), "match_count"]


def cmd_score(args: argparse.Namespace) -> None:
    cfg = _build_config(args)
    out = _outputs(cfg, "scores.csv", "buckets.json", "rejections.txt")
    records, rejections, filtered, rows = _score_chain(cfg)
    buckets = bucket_scores(rows)

    # str() of a float is its shortest round-trip repr, so analyze --scores
    # reads back exactly the vectors inline analysis uses; a zero-match row
    # prints its components as 0
    with _replacing(out["scores.csv"]) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORES_HEADER)
        for sc in rows:
            writer.writerow([sc.id, sc.delivery_year,
                             *(c if sc.match_count else 0 for c in sc.components),
                             sc.match_count])
    _write_lines(out["buckets.json"],
                 [json.dumps(_buckets_json(buckets), indent=2, sort_keys=True)])
    _write_lines(out["rejections.txt"], (
        f"{line_no}\t{rec_id}\t{code}\t{detail}" for line_no, rec_id, code, detail in [
            *((r.line_no, r.record_id, r.code, r.detail) for r in rejections),
            *(("-", rec.id, "non-english", "") for rec in filtered.rejected),
            *(("-", rid, "short-flagged", "") for rid in filtered.flagged_short)]))

    zero_total = sum(b.zero_match_count for b in buckets.values())
    print(f"parsed: {len(records)}  rejected lines: {len(rejections)}  "
          f"non-english: {len(filtered.rejected)}  short-flagged: {len(filtered.flagged_short)}  "
          f"scored: {len(rows)}  zero-match: {zero_total}")


def _read_scores_csv(path) -> Iterator[ScoredRecord]:
    with _reading("scores", path):
        reader = csv.reader(io.StringIO(Path(path).read_bytes().decode("utf-8-sig"), newline=""))
    try:
        header = next(reader, [])
        if header != SCORES_HEADER:
            raise DataError(f"unexpected scores.csv header: {','.join(header)!r}")
        yield from map(_scores_row, filter(None, reader))
    except (csv.Error, ValueError) as exc:
        raise DataError(f"bad scores.csv line {reader.line_num}: {exc}") from None


def _scores_row(row: list[str]) -> ScoredRecord:
    """One scores.csv row, held to what score can write: an id that ingest
    takes, plain decimal year (1..9999) and match_count; components in
    [0, 1], all 0 iff match_count is 0."""
    if len(row) != len(SCORES_HEADER):
        raise ValueError(f"expected {len(SCORES_HEADER)} fields, got {len(row)}")
    if fault := corpus_mod.id_fault(row[0]):
        raise ValueError(fault)
    components = tuple(map(float, row[2:8]))
    year, match_count = int(row[1]), int(row[8])
    if not (str(year) == row[1] and str(match_count) == row[8] and 1 <= year <= 9999):
        raise ValueError(f"delivery_year {row[1]!r} and match_count {row[8]!r} must be "
                         "plain decimals, the year in 1..9999")
    if not all(0.0 <= c <= 1.0 for c in components):
        raise ValueError(f"components not all in [0, 1]: {','.join(row[2:8])}")
    if match_count < 0:
        raise ValueError(f"negative match_count {match_count}")
    if (match_count > 0) != any(components):
        raise ValueError(f"match_count {match_count} disagrees with the components")
    return ScoredRecord(row[0], year, components, match_count)


def cmd_analyze(args: argparse.Namespace) -> None:
    cfg = _build_config(args)
    forms = ["ks_{}.csv", "trend_{}.csv", "trend_{}.json", *["trend_{}.svg"] * cfg.emit_svg]
    out = _outputs(cfg, *(form.format(s.value) for s in SCALES for form in forms))
    if args.scores:
        rows = (row for row in _read_scores_csv(args.scores)
                if cfg.in_range(row.delivery_year))
    else:
        *_, rows = _score_chain(cfg)
    try:
        result = stats.analyze(bucket_scores(rows), cfg.alpha_significant, cfg.alpha_marginal)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    if not result.trends:
        print("warning: fewer than three non-empty years; trend fits skipped",
              file=sys.stderr)

    flagged_total = 0
    for dimension, matrix in result.matrices.items():
        name = dimension.value
        flagged_total += sum(f != stats.FLAG_NONE for f in matrix.flags.values())
        # cells and flags share one insertion order, and a result fixes its
        # flag; pairs share few distinct results, so each tail is formatted once
        tails = {r: f"{name},{r.d_statistic:.6g},{r.p_value:.4f},{flag}\n" for r, flag
                 in dict.fromkeys(zip(matrix.cells.values(), matrix.flags.values()))}
        with _replacing(out[f"ks_{name}.csv"]) as fh:
            fh.write("year_a,year_b,dimension,d,p,flag\n" + "".join(
                f"{ya},{yb},{tails[r]}" for (ya, yb), r in matrix.cells.items()))

        if trend := result.trends.get(dimension):
            _write_lines(out[f"trend_{name}.csv"], [
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
            _write_lines(out[f"trend_{name}.json"], [json.dumps(trend_json, indent=2)])
            if cfg.emit_svg:
                _write_lines(out[f"trend_{name}.svg"], [svg.render_trend_svg(trend, matrix)])

    print(f"analyzed years: {result.years[0]}-{result.years[-1]}  "
          f"dimensions: {len(SCALES)}  flagged pairs: {flagged_total}")


def cmd_synth(args: argparse.Namespace) -> None:
    out_path = _checked(Path(args.out))
    lexicon = _load_lexicon(args.lexicon) if args.lexicon else load_default_lexicon()
    _compile_lexicon(lexicon)  # for its warnings; generate_corpus compiles its own
    try:
        with _reading("synth spec", args.spec):
            pairs = parse_kv_file(args.spec)
        records = synth.generate_corpus(lexicon=lexicon, **synth.parse_synth_spec(pairs))
    except ValueError as exc:
        raise DataError(f"bad synth spec: {exc}") from exc
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
    p_synth.add_argument("--lexicon", help="lexicon file (default: built-in lexicon)")
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

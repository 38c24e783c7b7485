"""Command-line pipeline: ``stats``, ``score``, ``analyze``, ``synth`` and
``stem`` subcommands over the corpus -> lexicon -> scoring -> statistics
chain.

Exit codes: 0 success, 1 usage/config error, 2 data validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import scoring, stats, svg, synth
from .config import (KEY_TYPES, ConfigError, PipelineConfig, apply_overrides,
                     load_config, parse_kv_file)
from .corpus import parse_corpus_file
from .lexicon import SCALES, LexiconError, compile_lexicon, load_lexicon_file
from .scoring import ScoredRecord, YearBucket, bucket_scores
from .textproc import porter_stem, tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the CLI contract reserves 2 for
    # data errors, so route usage problems through exit code 1 instead
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _UsageExit(message)


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _p4(p: float) -> str:
    return f"{p:.4f}"


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    overrides = {}
    for key in KEY_TYPES:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            overrides[key] = value
    apply_overrides(cfg, overrides)
    cfg.validate()
    return cfg


def _load_records(cfg: PipelineConfig):
    if not cfg.corpus_path:
        raise UsageError("no corpus path given (flag --corpus or config corpus_path)")
    path = Path(cfg.corpus_path)
    if not path.exists():
        raise DataError(f"corpus file not found: {path}")
    try:
        records, rejections = parse_corpus_file(path, fmt=cfg.corpus_format)
    except OSError as exc:
        raise DataError(f"cannot read corpus: {exc}") from exc
    return records, rejections


def _load_matcher(cfg: PipelineConfig):
    if not cfg.lexicon_path:
        raise UsageError("no lexicon path given (flag --lexicon or config lexicon_path)")
    path = Path(cfg.lexicon_path)
    if not path.exists():
        raise DataError(f"lexicon file not found: {path}")
    try:
        lexicon = load_lexicon_file(path)
    except LexiconError as exc:
        raise DataError(f"lexicon validation failed: {exc}") from exc
    matcher = compile_lexicon(lexicon)
    for warning in matcher.warnings:
        print(f"lexicon-warning\t{warning.as_line()}", file=sys.stderr)
    return matcher


def _score_chain(cfg: PipelineConfig):
    """parse -> filter -> score; returns the parsed records, the rejections,
    the language filter result and the scored rows within the year range."""
    records, rejections = _load_records(cfg)
    matcher = _load_matcher(cfg)
    filtered = corpus_mod.filter_english(records, threshold=cfg.english_threshold)
    rows = scoring.score_records(filtered.kept, matcher, cfg.year_range)
    return records, rejections, filtered, rows


def _write_rejections(out_dir: Path, rejections, filtered) -> None:
    lines = [r.as_line() for r in rejections]
    lines += [f"-\t{rec.id}\tnon-english\t" for rec in filtered.rejected]
    lines += [f"-\t{rid}\tshort-flagged\t" for rid in filtered.flagged_short]
    (out_dir / "rejections.txt").write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _buckets_json(buckets: dict[int, YearBucket]) -> dict:
    out = {}
    for year in sorted(buckets):
        b = buckets[year]
        mean = b.mean_vector()
        out[str(year)] = {
            "year": year,
            "count": len(b.vectors),
            "zero_match_count": b.zero_match_count,
            "mean_vector": None if mean is None else [repr(c) for c in mean],
        }
    return out


def cmd_stats(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    records, rejections = _load_records(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    encoding_rejects = sum(1 for r in rejections
                           if r.code == corpus_mod.REJECT_BAD_ENCODING)
    cstats = corpus_mod.delivery_histogram(records, rejected_encoding=encoding_rejects)
    if not records:
        print("warning: corpus is empty", file=sys.stderr)

    hist_lines = ["delivery_year,count"]
    hist_lines += [f"{y},{c}" for y, c in cstats.histogram_rows()]
    (out_dir / "histogram.csv").write_text("\n".join(hist_lines) + "\n", encoding="utf-8")

    lag_lines = ["origin_year,mean_lag_years"]
    lag_lines += [f"{y},{_sig6(v)}" for y, v in sorted(cstats.mean_lag_years.items())]
    (out_dir / "mean_lag.csv").write_text("\n".join(lag_lines) + "\n", encoding="utf-8")

    freq = corpus_mod.word_frequency(records, top_n=cfg.top_n)
    freq_lines = ["rank,word,count"]
    freq_lines += [f"{i},{w},{c}" for i, (w, c) in enumerate(freq, start=1)]
    (out_dir / "wordfreq.csv").write_text("\n".join(freq_lines) + "\n", encoding="utf-8")

    (out_dir / "stats.json").write_text(
        json.dumps(cstats.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    print(f"records: {cstats.total_records}  rejected lines: {len(rejections)}  "
          f"years: {len(cstats.per_year_counts)}")
    return EXIT_OK


SCORES_HEADER = ["id", "delivery_year", *(s.value for s in SCALES), "match_count"]


def _write_scores_csv(path: Path, rows: list[ScoredRecord]) -> None:
    # str() of a float is its shortest round-trip repr, so analyze --scores
    # reads back exactly the vectors inline analysis uses
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORES_HEADER)
        for sc in rows:
            writer.writerow([sc.id, sc.delivery_year, *sc.components, sc.match_count])


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    records, rejections, filtered, rows = _score_chain(cfg)
    buckets = bucket_scores(rows, cfg.year_range)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_scores_csv(out_dir / "scores.csv", rows)
    (out_dir / "buckets.json").write_text(
        json.dumps(_buckets_json(buckets), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    _write_rejections(out_dir, rejections, filtered)

    zero_total = sum(b.zero_match_count for b in buckets.values())
    print(f"parsed: {len(records)}  rejected lines: {len(rejections)}  "
          f"non-english: {len(filtered.rejected)}  short-flagged: {len(filtered.flagged_short)}  "
          f"scored: {len(rows)}  zero-match: {zero_total}")
    return EXIT_OK


def _read_scores_csv(path: Path) -> list[ScoredRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header != SCORES_HEADER:
                raise DataError(f"unexpected scores.csv header: {','.join(header)!r}")
            return [_scores_row(row) for row in reader if row]
        except (csv.Error, ValueError) as exc:
            raise DataError(f"bad scores.csv line {reader.line_num}: {exc}") from None


def _scores_row(row: list[str]) -> ScoredRecord:
    if len(row) != len(SCORES_HEADER):
        raise ValueError(f"expected {len(SCORES_HEADER)} fields, got {len(row)}")
    return ScoredRecord(row[0], int(row[1]), tuple(float(v) for v in row[2:8]),
                        int(row[8]))


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if getattr(args, "scores", None):
        scores_path = Path(args.scores)
        if not scores_path.exists():
            raise DataError(f"scores file not found: {scores_path}")
        rows = _read_scores_csv(scores_path)
    else:
        *_, rows = _score_chain(cfg)
    buckets = bucket_scores(rows, cfg.year_range)
    non_empty = [y for y, b in buckets.items() if len(b.vectors)]
    if len(non_empty) < 2:
        raise DataError(f"need at least two non-empty year buckets, got {len(non_empty)}")

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trends_possible = len(non_empty) >= 3
    if not trends_possible:
        print("warning: fewer than three non-empty years; trend fits skipped",
              file=sys.stderr)

    flagged_total = 0
    for dimension in SCALES:
        matrix = stats.pairwise_ks(buckets, dimension,
                                   alpha_significant=cfg.alpha_significant,
                                   alpha_marginal=cfg.alpha_marginal)
        ks_lines = ["year_a,year_b,dimension,d,p,flag"]
        for ya, yb, dim, d, p, flag in matrix.csv_rows():
            ks_lines.append(f"{ya},{yb},{dim},{_sig6(d)},{_p4(p)},{flag}")
            if flag != stats.FLAG_NONE:
                flagged_total += 1
        (out_dir / f"ks_{dimension.value}.csv").write_text(
            "\n".join(ks_lines) + "\n", encoding="utf-8")

        if trends_possible:
            trend = stats.build_trend(buckets, dimension)
            trend_lines = ["year,raw_mean,z,fitted"]
            for year, raw, z, fitted in trend.csv_rows():
                trend_lines.append(f"{year},{_sig6(raw)},{_sig6(z)},{_sig6(fitted)}")
            (out_dir / f"trend_{dimension.value}.csv").write_text(
                "\n".join(trend_lines) + "\n", encoding="utf-8")
            trend_json = {
                "dimension": dimension.value,
                "years": trend.years,
                "raw_means": [repr(v) for v in trend.raw_means],
                "z_scores": [repr(v) for v in trend.z_scores],
                "fit_coeffs": [repr(c) for c in trend.fit_coeffs],
                "fitted": [repr(v) for v in trend.fitted],
                "degenerate": trend.degenerate,
            }
            (out_dir / f"trend_{dimension.value}.json").write_text(
                json.dumps(trend_json, indent=2) + "\n", encoding="utf-8")
            if cfg.emit_svg:
                (out_dir / f"trend_{dimension.value}.svg").write_text(
                    svg.render_trend_svg(trend, matrix) + "\n", encoding="utf-8")

    years_str = f"{min(non_empty)}-{max(non_empty)}"
    print(f"analyzed years: {years_str}  dimensions: {len(SCALES)}  "
          f"flagged pairs: {flagged_total}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise DataError(f"synth spec not found: {spec_path}")
    try:
        parsed = synth.parse_synth_spec(parse_kv_file(spec_path))
    except ValueError as exc:
        raise DataError(f"bad synth spec: {exc}") from exc
    if args.seed is not None:
        parsed["seed"] = args.seed
    if args.lexicon:
        try:
            lexicon = load_lexicon_file(args.lexicon)
        except LexiconError as exc:
            raise DataError(f"lexicon validation failed: {exc}") from exc
    else:
        from .lexicon import load_default_lexicon
        lexicon = load_default_lexicon()
    try:
        records = synth.generate_corpus(lexicon=lexicon, **parsed)
    except ValueError as exc:
        raise DataError(f"generation failed: {exc}") from exc
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [corpus_mod.format_record_line(rec) for rec in records]
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    years = sorted({r.delivery_year for r in records})
    print(f"wrote {len(records)} records over years {years[0]}-{years[-1]} "
          f"to {out_path}")
    return EXIT_OK


def cmd_stem(args: argparse.Namespace) -> int:
    for word in args.words:
        for token in tokenize(word):
            print(f"{token}\t{porter_stem(token)}")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser, *, corpus: bool = False,
                      lexicon: bool = False, analysis: bool = False) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--output-dir", dest="output_dir", help="output directory")
    if corpus:
        p.add_argument("--corpus", dest="corpus_path", help="corpus file")
        p.add_argument("--corpus-format", dest="corpus_format",
                       choices=("tsv", "jsonl"), default=None)
    if lexicon:
        p.add_argument("--lexicon", dest="lexicon_path", help="lexicon file")
        p.add_argument("--english-threshold", dest="english_threshold", type=float)
        p.add_argument("--year-min", dest="year_min", type=int)
        p.add_argument("--year-max", dest="year_max", type=int)
    if analysis:
        p.add_argument("--alpha-significant", dest="alpha_significant", type=float)
        p.add_argument("--alpha-marginal", dest="alpha_marginal", type=float)
        p.add_argument("--emit-svg", dest="emit_svg", action="store_true", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="moodtrends",
                     description="Mood scoring and trend analysis over "
                                 "future-dated message corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="corpus histogram and word table")
    _add_config_flags(p_stats, corpus=True)
    p_stats.add_argument("--top-n", dest="top_n", type=int)
    p_stats.set_defaults(func=cmd_stats)

    p_score = sub.add_parser("score", help="score every document into mood vectors")
    _add_config_flags(p_score, corpus=True, lexicon=True)
    p_score.set_defaults(func=cmd_score)

    p_an = sub.add_parser("analyze", help="pairwise KS tests and trend fits")
    _add_config_flags(p_an, corpus=True, lexicon=True, analysis=True)
    p_an.add_argument("--scores", help="reuse a scores.csv from a score run "
                                       "instead of scoring inline")
    p_an.set_defaults(func=cmd_analyze)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--spec", required=True, help="synth spec file")
    p_synth.add_argument("--seed", type=int, default=None)
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
        return args.func(args)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LexiconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

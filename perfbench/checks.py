"""Output checks for one round of CLI commands.

Every check returns a list of failure messages; an empty list means the
command's outputs are correct. The expected counts come from the workload
generator (``workloads.Inputs``), never from the program under test, and the
KS statistic is recomputed here with numpy, independently of the package.
"""

from __future__ import annotations

import csv
import json
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np

DIMENSIONS = ("tension", "depression", "anger", "vigor", "fatigue", "confusion")
PAIRS_PER_DIMENSION = 3


def _stdout_count(stdout: str, label: str) -> int | None:
    m = re.search(rf"{label}: (\d+)", stdout)
    return int(m.group(1)) if m else None


def check_stats(out: Path, stdout: str, inputs) -> list[str]:
    errors = []
    summary = json.loads((out / "stats.json").read_text("utf-8"))
    records = summary["total_records"]
    rejected = _stdout_count(stdout, "rejected lines")
    if records != inputs.docs:
        errors.append(f"stats: {records} records, expected {inputs.docs}")
    if rejected is None or records + rejected != inputs.non_blank_lines:
        errors.append(f"stats: records {records} + rejected {rejected} != "
                      f"{inputs.non_blank_lines} non-blank lines")
    rows = (out / "histogram.csv").read_text("utf-8").splitlines()[1:]
    if len(rows) != inputs.years or sum(int(r.split(",")[1]) for r in rows) != records:
        errors.append(f"stats: histogram has {len(rows)} years, expected {inputs.years}, "
                      f"or its counts do not sum to {records}")
    return errors


def check_score(out: Path, stdout: str, inputs) -> list[str]:
    errors = []
    parsed = _stdout_count(stdout, "parsed")
    codes = Counter()
    for line in (out / "rejections.txt").read_text("utf-8").splitlines():
        codes[line.split("\t")[2]] += 1
    line_rejects = sum(codes[c] for c in inputs.rejects)
    if parsed is None or parsed + line_rejects != inputs.non_blank_lines:
        errors.append(f"score: parsed {parsed} + rejected {line_rejects} != "
                      f"{inputs.non_blank_lines} non-blank lines")
    expected = Counter(inputs.rejects)
    if inputs.non_english:
        expected["non-english"] = inputs.non_english
    got = Counter({c: n for c, n in codes.items() if c != "short-flagged"})
    if got != expected:
        errors.append(f"score: rejection counts {dict(got)}, expected {dict(expected)}")
    with open(out / "scores.csv", encoding="utf-8", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != inputs.kept:
        errors.append(f"score: scores.csv has {rows} rows, expected {inputs.kept}")
    return errors


def read_scores(path: Path) -> dict[int, np.ndarray]:
    """Per-year (n, 6) component arrays of the documents that matched."""
    by_year: dict[int, list[list[float]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if int(row[8]) > 0:
                by_year.setdefault(int(row[1]), []).append([float(v) for v in row[2:8]])
    return {y: np.asarray(v) for y, v in by_year.items()}


def ks_d(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS D, exact: max |i*m - j*n| / (n*m) over pooled points."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    i = np.searchsorted(a, pooled, side="right")
    j = np.searchsorted(b, pooled, side="right")
    return int(np.abs(i * len(b) - j * len(a)).max()) / (len(a) * len(b))


def check_ks_tables(out: Path, inputs, scores: dict[int, np.ndarray],
                    seed: int) -> list[str]:
    """Row counts of every ks_*.csv, and D spot checks against numpy."""
    errors = []
    years = sorted(scores)
    want_rows = inputs.years * (inputs.years - 1) // 2
    rng = random.Random(seed)
    for k, dim in enumerate(DIMENSIONS):
        rows = (out / f"ks_{dim}.csv").read_text("utf-8").splitlines()[1:]
        if len(rows) != want_rows:
            errors.append(f"ks_{dim}.csv has {len(rows)} rows, expected {want_rows}")
            continue
        table = {(int(r[0]), int(r[1])): r[3] for r in (x.split(",") for x in rows)}
        for _ in range(PAIRS_PER_DIMENSION):
            ya, yb = sorted(rng.sample(years, 2))
            d = ks_d(scores[ya][:, k], scores[yb][:, k])
            if table.get((ya, yb)) != f"{d:.6g}":
                errors.append(f"ks_{dim}.csv {ya}-{yb}: D {table.get((ya, yb))}, "
                              f"numpy gives {d:.6g}")
    return errors


def check_same_analysis(inline: Path, from_scores: Path) -> list[str]:
    """analyze --scores must write byte-identical ks_/trend_ files."""
    names = sorted(p.name for p in inline.iterdir()
                   if p.name.startswith(("ks_", "trend_")))
    other = sorted(p.name for p in from_scores.iterdir()
                   if p.name.startswith(("ks_", "trend_")))
    if names != other:
        return [f"analyze --scores wrote {other}, inline analyze wrote {names}"]
    return [f"analyze --scores: {n} differs from inline analyze" for n in names
            if (inline / n).read_bytes() != (from_scores / n).read_bytes()]

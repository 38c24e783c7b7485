"""moodtrends benchmark: the real CLI on seeded workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe

A run generates the workload's corpus from the seed, then repeats rounds
until the time is up. A round generates the corpus again (timed, and checked
to be byte-identical) and runs the four user commands -- ``stats``,
``score``, ``analyze --emit-svg`` and ``analyze --scores <score's
scores.csv>`` -- each in a fresh interpreter, between runs of the fixed
``reference_task.py``. Every command's outputs are checked. With
``--trace 0`` it reports the end-to-end metrics (command times as medians
over the rounds of wall time relative to the reference task); with
``--trace 1`` it alternates untraced rounds with rounds run through
``traced_cli.py`` and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.

``--describe`` prints every metric with its unit for each workload and
writes BENCHMARK.json at the repository root. See README.md beside this file
for what each metric should move.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
VOC = ROOT / "tests" / "data" / "porter" / "voc.txt"
LEXICON = SRC / "moodtrends" / "data" / "default_lexicon.txt"
REFERENCE = BENCH / "reference_task.py"

RUN_SECONDS = 42
# Command times are reported in seconds of a host on which reference_task.py
# takes REF_S: each command's wall time is divided by that of the reference
# task runs on either side of it, which cancels the host's slow spells
# (README.md, "Noise"). 0.30 s is the task's wall time on the 2-vCPU host
# the bounds were set on.
REF_S = 0.30
MIN_ROUNDS = 3
COMMANDS = ("stats", "score", "analyze", "analyze_scores")

WORKLOADS = {
    "synth-c7": "the acceptance C7 shape (constant(10) on six scales, 31 years): "
                "escape-free parsing, filtering and scoring are heavy, stemming "
                "is nearly free, KS runs 2,790 tests",
    "realvocab-letters": "Zipf filler from the 23.5k-word Porter vocabulary in escaped "
                         "multi-paragraph letters: cold stem cache, escape-heavy "
                         "parsing, non-English and malformed lines to reject",
    "ks-scores-60y": "noisy tied trends over 60 years: 10,620 KS tests dominate "
                     "analyze --scores, which bypasses ingest entirely",
}

# name, unit, better, bound, what
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, "generate the workload's corpus (median of one per round)"),
    ("stats_s", "s", "lower", 0.25, "wall time of moodtrends stats (at reference speed)"),
    ("score_s", "s", "lower", 0.25, "wall time of moodtrends score (at reference speed)"),
    ("analyze_s", "s", "lower", 0.25,
     "wall time of inline moodtrends analyze --emit-svg (at reference speed)"),
    ("analyze_scores_s", "s", "lower", 0.25,
     "wall time of moodtrends analyze --scores <score's scores.csv> --emit-svg "
     "(at reference speed)"),
    ("score_docs_per_s", "docs/s", "higher", 0.25,
     "documents kept by the language filter / score_s"),
    ("peak_rss_mb", "MB", "lower", 0.1, "highest child peak RSS over the run's commands"),
)

# name, unit, better, what (counts describe the workload and should not move)
PER_LAYER = (
    ("corpus.parse_ms", "ms", "lower", "parse_corpus_file, per call"),
    ("corpus.parse_mb_per_s", "MB/s", "higher", "corpus bytes / corpus.parse_ms"),
    ("corpus.records", "count", "higher", "records parsed"),
    ("corpus.rejected_lines", "count", "lower", "lines rejected by the parser"),
    ("corpus.filter_ms", "ms", "lower", "filter_english, per call"),
    ("corpus.filter_kept_ratio", "ratio", "higher", "records kept / records judged"),
    ("corpus.wordfreq_ms", "ms", "lower", "word_frequency, per call"),
    ("corpus.histogram_ms", "ms", "lower", "delivery_histogram, per call"),
    ("textproc.tokenize_ms", "ms", "lower", "tokenize every kept body (replay)"),
    ("textproc.tokens", "count", "higher", "tokens in the kept bodies"),
    ("textproc.distinct_tokens", "count", "higher", "distinct tokens in the kept bodies"),
    ("textproc.stem_cold_ms", "ms", "lower", "porter_stem every token after cache_clear (replay)"),
    ("textproc.stem_ms", "ms", "lower", "porter_stem every token again, cache warm (replay)"),
    ("textproc.stem_cache_hit_ratio", "ratio", "higher", "porter_stem cache_info after score"),
    ("porter.stem_distinct_ms", "ms", "lower", "porter.stem once per distinct token (replay)"),
    ("lexicon.compile_ms", "ms", "lower", "load_lexicon_file + compile_lexicon, per command"),
    ("scoring.score_ms", "ms", "lower", "all score_record calls of one command"),
    ("scoring.docs", "count", "higher", "documents scored by score"),
    ("scoring.zero_match_ratio", "ratio", "lower", "scored documents with no lexicon match"),
    ("stats.ks_ms", "ms", "lower", "pairwise_ks over six dimensions, per command"),
    ("stats.ks_tests", "count", "higher", "KS tests per analyze"),
    ("stats.ks_us_per_test", "us", "lower", "stats.ks_ms / stats.ks_tests"),
    ("stats.trend_ms", "ms", "lower", "build_trend over six dimensions, per command"),
    ("svg.render_ms", "ms", "lower", "render_trend_svg over six dimensions, per command"),
    ("cli.self_ms", "ms", "lower", "command spans minus their child spans, summed over the four"),
    ("synth.generate_ms", "ms", "lower", "synth.generate_corpus during setup"),
    ("trace.overhead_pct", "%", "lower",
     "traced over untraced wall time of the four commands, at reference speed"),
)


def describe() -> None:
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for name, why in WORKLOADS.items():
        print(f"{name}: {why}")
        for n, u, _, bd, what in END_TO_END:
            print(f"  {n:<32} {u:<7} (bound {bd:.0%})  {what}")
        for n, u, _, what in PER_LAYER:
            print(f"  {n:<32} {u:<7} (trace)      {what}")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")


@dataclass
class Op:
    """One command execution and what its checks found."""

    wall_s: float
    rc: int
    rss_kb: int
    ref_s: float  # geometric mean of the reference task runs on either side
    errors: list[str] = field(default_factory=list)
    trace: dict | None = None

    @property
    def ref_wall_s(self) -> float:
        """Wall time at reference speed (see REF_S)."""
        return self.wall_s / self.ref_s * REF_S

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.errors)


def cli_args(cmd: str, corpus: Path, round_dir: Path) -> list[str]:
    """moodtrends arguments for one of COMMANDS; outputs go to round_dir/cmd,
    and analyze --scores reads the scores.csv of the same round's score."""
    corpus_flags = ["--corpus", str(corpus)]
    lexicon = ["--lexicon", str(LEXICON)]
    return {
        "stats": ["stats", *corpus_flags],
        "score": ["score", *corpus_flags, *lexicon],
        "analyze": ["analyze", *corpus_flags, *lexicon, "--emit-svg"],
        "analyze_scores": ["analyze", "--scores", str(round_dir / "score" / "scores.csv"),
                           "--emit-svg"],
    }[cmd] + ["--output-dir", str(round_dir / cmd)]


class Runner:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        # OpenBLAS would start a thread per core at import that the
        # single-threaded CLI never uses; on a 2-core host it only adds noise
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        self.corpus = work / "corpus.tsv"
        self.inputs = None
        self.digest = None
        self.setup_s: list[float] = []
        self.setup_failures = 0
        self.generate_ms: list[float] = []
        self.replays: list[dict[str, float]] = []

    # -- set-up -----------------------------------------------------------
    def setup(self) -> None:
        """Generate the corpus, timed, and check it is byte-identical to the
        first one this run made. Runs once before the rounds and again at
        the start of each, so set-up samples span the whole run."""
        import workloads
        from moodtrends import generate_corpus

        def timed_generate(*args, **kwargs):
            start = time.perf_counter()
            try:
                return generate_corpus(*args, **kwargs)
            finally:
                self.generate_ms.append((time.perf_counter() - start) * 1e3)

        make = {
            "synth-c7": workloads.synth_c7,
            "ks-scores-60y": workloads.ks_scores_60y,
            "realvocab-letters": functools.partial(workloads.realvocab_letters,
                                                   voc_path=VOC),
        }[self.workload]
        start = time.perf_counter()
        self.inputs = make(self.seed, self.corpus, generate=timed_generate)
        self.setup_s.append(time.perf_counter() - start)
        digest = hashlib.sha256(self.corpus.read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
            # compile the package's bytecode before anything is timed
            self._spawn([sys.executable, "-m", "moodtrends", "stem", "warm"],
                        self.work / "warmup.log")
        elif digest != self.digest:
            self.setup_failures += 1
            print("check failed: the generator gave another corpus for the same seed",
                  file=sys.stderr)

    # -- commands ---------------------------------------------------------
    def _spawn(self, argv: list[str], log: Path) -> tuple[float, int, int]:
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def _reference(self, log: Path) -> float:
        """Wall time of one run of the reference task."""
        wall_s, rc, _ = self._spawn([sys.executable, str(REFERENCE)], log)
        if rc != 0:
            raise RuntimeError(f"reference task exit code {rc}, see {log}")
        return wall_s

    def run_round(self, index: int, traced: bool) -> dict[str, Op]:
        import checks

        round_dir = self.work / f"round-{index}"
        round_dir.mkdir()
        ops: dict[str, Op] = {}
        # the reference task runs before each command and once after the
        # last; a command is gauged by the references on either side of it
        ref_before = self._reference(round_dir / "reference-0.log")
        for i, cmd in enumerate(COMMANDS, start=1):
            args = cli_args(cmd, self.corpus, round_dir)
            trace_file = round_dir / f"{cmd}.trace.json"
            if traced:
                argv = [sys.executable, str(BENCH / "traced_cli.py"),
                        str(trace_file), "--", *args]
            else:
                argv = [sys.executable, "-m", "moodtrends", *args]
            wall_s, rc, rss_kb = self._spawn(argv, round_dir / f"{cmd}.log")
            ref_after = self._reference(round_dir / f"reference-{i}.log")
            ops[cmd] = Op(wall_s, rc, rss_kb, math.sqrt(ref_before * ref_after))
            ref_before = ref_after
            if traced and trace_file.exists():
                ops[cmd].trace = json.loads(trace_file.read_text("utf-8"))

        def log(cmd: str) -> str:
            return (round_dir / f"{cmd}.log").read_text("utf-8", errors="replace")

        spot_seed = self.seed * 1000 + index
        scores = functools.cache(
            lambda: checks.read_scores(round_dir / "score" / "scores.csv"))
        checks_by_cmd = {
            "stats": lambda: checks.check_stats(round_dir / "stats", log("stats"),
                                                self.inputs),
            "score": lambda: checks.check_score(round_dir / "score", log("score"),
                                                self.inputs),
            "analyze": lambda: checks.check_ks_tables(
                round_dir / "analyze", self.inputs, scores(), spot_seed),
            "analyze_scores": lambda: checks.check_ks_tables(
                round_dir / "analyze_scores", self.inputs, scores(), spot_seed)
                + checks.check_same_analysis(round_dir / "analyze",
                                             round_dir / "analyze_scores"),
        }
        for cmd, op in ops.items():
            try:
                op.errors = checks_by_cmd[cmd]()
            except Exception as exc:  # a missing or garbled output is a failed check
                op.errors = [f"{cmd}: output check raised {exc!r}"]
            if op.rc != 0:
                op.errors.append(f"{cmd}: exit code {op.rc}")
            for err in op.errors:
                print(f"check failed (round {index}): {err}", file=sys.stderr)
        shutil.rmtree(round_dir)
        return ops

    def measure(self, seconds: float, traced: bool) -> list[dict[str, Op]]:
        """Rounds until the time is up. With traced, untraced and traced
        rounds alternate so both see the same stretch of host speed, and
        each traced round is followed by a tokenize/stem replay."""
        if traced:
            from moodtrends import filter_english, parse_corpus_file
            records, _ = parse_corpus_file(self.corpus)
            bodies = [rec.body for rec in filter_english(records).kept]
        rounds: list[dict[str, Op]] = []
        deadline = time.perf_counter() + seconds
        last = 0.0
        while len(rounds) < MIN_ROUNDS or time.perf_counter() + last < deadline:
            start = time.perf_counter()
            tracing = traced and len(rounds) % 2 == 1
            self.setup()
            rounds.append(self.run_round(len(rounds), tracing))
            if tracing:
                self.replays.append(replay_textproc(bodies))
            last = time.perf_counter() - start
        return rounds


# -- metrics -------------------------------------------------------------

def ref_median(rounds: list[dict[str, Op]], cmd: str) -> float:
    """Median over the rounds of cmd's wall time at reference speed."""
    return statistics.median(r[cmd].ref_wall_s for r in rounds)


def e2e_metrics(runner: Runner, rounds: list[dict[str, Op]]) -> dict[str, float]:
    """Command times are medians at reference speed: slow spells on the
    host add 20-80% to every process for seconds to minutes, and the
    reference task runs on either side of a command slow with it (README.md,
    "Noise")."""
    wall = {cmd: ref_median(rounds, cmd) for cmd in COMMANDS}
    return {
        "setup_s": statistics.median(runner.setup_s),
        "stats_s": wall["stats"],
        "score_s": wall["score"],
        "analyze_s": wall["analyze"],
        "analyze_scores_s": wall["analyze_scores"],
        "score_docs_per_s": runner.inputs.kept / wall["score"],
        "peak_rss_mb": max(op.rss_kb for r in rounds for op in r.values()) / 1024,
    }


def self_times(trace: dict) -> dict[str, float]:
    """Self time in ms per span name: a span's duration minus its children's."""
    spans = trace["spans"]
    own = [(end - start) / 1e6 for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= (end - start) / 1e6
    out: dict[str, float] = {}
    for (name, *_), ms in zip(spans, own):
        out[name] = out.get(name, 0.0) + ms
    return out


def replay_textproc(bodies: list[str]) -> dict[str, float]:
    """Tokenize and stem the kept bodies outside the CLI, since both run
    inside corpus and scoring calls that the trace sees only as a whole."""
    from moodtrends import porter, porter_stem, tokenize

    start = time.perf_counter()
    tokens = [t for body in bodies for t in tokenize(body)]
    tokenize_ms = (time.perf_counter() - start) * 1e3
    porter_stem.cache_clear()
    start = time.perf_counter()
    for t in tokens:
        porter_stem(t)
    cold_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    for t in tokens:
        porter_stem(t)
    warm_ms = (time.perf_counter() - start) * 1e3
    distinct = set(tokens)
    start = time.perf_counter()
    for t in distinct:
        porter.stem(t.replace("'", ""))
    distinct_ms = (time.perf_counter() - start) * 1e3
    return {"textproc.tokenize_ms": tokenize_ms, "textproc.tokens": len(tokens),
            "textproc.distinct_tokens": len(distinct), "textproc.stem_cold_ms": cold_ms,
            "textproc.stem_ms": warm_ms, "porter.stem_distinct_ms": distinct_ms}


def layer_metrics(runner: Runner, rounds: list[dict[str, Op]]) -> dict[str, float]:
    traced = [r for r in rounds if all(op.trace for op in r.values())]
    plain = [r for r in rounds if not any(op.trace for op in r.values())]
    selfs = [{cmd: self_times(op.trace) for cmd, op in r.items()} for r in traced]

    def per_call(name: str) -> float:
        vals = [s[name] for r in selfs for s in r.values() if name in s]
        return statistics.median(vals) if vals else 0.0

    m = {k: statistics.median(r[k] for r in runner.replays) for k in runner.replays[0]}

    score = traced[0]["score"].trace["counts"]
    ks_tests = traced[0]["analyze_scores"].trace["counts"]["stats.ks_tests"]
    parse_ms = per_call("corpus.parse")
    ks_ms = per_call("stats.ks")
    hits = score.get("textproc.stem_cache_hits", 0)
    lookups = hits + score.get("textproc.stem_cache_misses", 0)
    judged = score["corpus.filter_kept"] + score["corpus.filter_rejected"]
    traced_wall = sum(ref_median(traced, c) for c in COMMANDS)
    plain_wall = sum(ref_median(plain, c) for c in COMMANDS)
    m.update({
        "corpus.parse_ms": parse_ms,
        "corpus.parse_mb_per_s": score["corpus.bytes"] / 1e6 / (parse_ms / 1e3),
        "corpus.records": score["corpus.records"],
        "corpus.rejected_lines": score["corpus.rejected_lines"],
        "corpus.filter_ms": per_call("corpus.filter"),
        "corpus.filter_kept_ratio": score["corpus.filter_kept"] / judged,
        "corpus.wordfreq_ms": per_call("corpus.wordfreq"),
        "corpus.histogram_ms": per_call("corpus.histogram"),
        "textproc.stem_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "lexicon.compile_ms": per_call("lexicon.compile"),
        "scoring.score_ms": per_call("scoring.score"),
        "scoring.docs": score["scoring.docs"],
        "scoring.zero_match_ratio": score["scoring.zero_match"] / score["scoring.docs"],
        "stats.ks_ms": ks_ms,
        "stats.ks_tests": ks_tests,
        "stats.ks_us_per_test": ks_ms * 1e3 / ks_tests,
        "stats.trend_ms": per_call("stats.trend"),
        "svg.render_ms": per_call("svg.render"),
        "cli.self_ms": statistics.median(
            sum(v for s in r.values() for k, v in s.items() if k.startswith("cli."))
            for r in selfs),
        "synth.generate_ms": statistics.median(runner.generate_ms),
        "trace.overhead_pct": (traced_wall / plain_wall - 1) * 100,
    })
    print_shares(selfs)
    return m


def print_shares(selfs: list[dict[str, dict[str, float]]]) -> None:
    """Median self time of each layer per command, and its share of the
    command span: a faster layer saves at most that share."""
    for cmd in COMMANDS:
        names = sorted({n for r in selfs for n in r[cmd]})
        med = {n: statistics.median(r[cmd].get(n, 0.0) for r in selfs) for n in names}
        total = sum(med.values())
        parts = ", ".join(f"{n} {ms:.1f} ms ({ms / total:.0%})"
                          for n, ms in sorted(med.items(), key=lambda kv: -kv[1]))
        print(f"trace {cmd}: {total:.1f} ms = {parts}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the metric catalogue and write BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.describe:
        describe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    missing = [p for p in (SRC / "moodtrends" / "__init__.py", VOC, LEXICON)
               if not p.is_file()]
    if missing:
        print(f"error: not a moodtrends checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = BENCH / "work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        runner = Runner(args.workload, args.seed, work)
        runner.setup()
        rounds = runner.measure(args.seconds, traced=bool(args.trace))
        if args.trace:
            metrics = layer_metrics(runner, rounds)
            units = {n: u for n, u, *_ in PER_LAYER}
        else:
            metrics = e2e_metrics(runner, rounds)
            units = {n: u for n, u, *_ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r.values()]
    attempted = len(ops) + len(runner.setup_s)
    failed = sum(op.failed for op in ops) + runner.setup_failures
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed "
          f"(failed_ops_frac {failed / attempted:.4f})")
    for name in units:
        print(f"  {name:<32} {metrics[name]:>14.6g} {units[name]}")
    if not args.trace:
        for cmd in COMMANDS:
            for what, vals in (("wall s", [r[cmd].wall_s for r in rounds]),
                               ("reference task s", [r[cmd].ref_s for r in rounds]),
                               ("wall s at reference speed",
                                [r[cmd].ref_wall_s for r in rounds])):
                q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
                print(f"  {cmd} {what} over {len(rounds)} rounds: quartiles "
                      f"{q1:.4f} {q2:.4f} {q3:.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

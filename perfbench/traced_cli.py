"""Run one moodtrends CLI command with spans around its calls into each module.

Usage: python3 traced_cli.py TRACE_JSON -- <moodtrends arguments>

The package itself carries no tracing. Before the command runs, this script
replaces each public function listed in TARGETS, in every loaded moodtrends
module that holds it, by a wrapper that records a span (name, start, end,
parent) and a few counters. Spans stay in memory and are written to
TRACE_JSON when the command ends; the exit code is the command's own.
"""

from __future__ import annotations

import json
import os
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][1:3] = start, time.perf_counter_ns()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result
        return wrapper


def _parsed(t: Tracer, args, result) -> None:
    records, rejections = result
    t.count("corpus.records", len(records))
    t.count("corpus.rejected_lines", len(rejections))
    t.count("corpus.bytes", os.path.getsize(args[0]))


def _filtered(t: Tracer, args, result) -> None:
    t.count("corpus.filter_kept", len(result.kept))
    t.count("corpus.filter_rejected", len(result.rejected))


def _scored(t: Tracer, args, result) -> None:
    t.count("scoring.docs", 1)
    t.count("scoring.zero_match", result.match_count == 0)


def _tested(t: Tracer, args, result) -> None:
    t.count("stats.ks_tests", len(result.pairs()))


# (module, function, span name, counter hook)
TARGETS = (
    ("corpus", "parse_corpus_file", "corpus.parse", _parsed),
    ("corpus", "filter_english", "corpus.filter", _filtered),
    ("corpus", "word_frequency", "corpus.wordfreq", None),
    ("corpus", "delivery_histogram", "corpus.histogram", None),
    ("lexicon", "load_lexicon_file", "lexicon.compile", None),
    ("lexicon", "compile_lexicon", "lexicon.compile", None),
    ("scoring", "score_record", "scoring.score", _scored),
    ("stats", "pairwise_ks", "stats.ks", _tested),
    ("stats", "build_trend", "stats.trend", None),
    ("svg", "render_trend_svg", "svg.render", None),
)


def instrument(tracer: Tracer) -> None:
    """Swap every TARGETS function for its traced wrapper wherever a
    moodtrends module refers to it, so calls by module attribute and by
    imported name are both seen."""
    import moodtrends.cli  # noqa: F401  loads every module the CLI uses

    modules = [m for name, m in list(sys.modules.items())
               if name == "moodtrends" or name.startswith("moodtrends.")]
    for mod_name, fn_name, span_name, hook in TARGETS:
        original = getattr(sys.modules[f"moodtrends.{mod_name}"], fn_name, None)
        if original is None:
            continue
        wrapped = tracer.span(span_name, original, hook)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    instrument(tracer)
    from moodtrends import cli, textproc

    rc = tracer.span(f"cli.{cli_args[0]}", cli.main)(cli_args)
    cache = getattr(textproc.porter_stem, "cache_info", None)
    if cache is not None:
        info = cache()
        tracer.count("textproc.stem_cache_hits", info.hits)
        tracer.count("textproc.stem_cache_misses", info.misses)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

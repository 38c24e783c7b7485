"""The benchmark's traced runner (perfbench/traced_cli.py) wraps public
functions of the package by name. This guard runs it on a small synthetic
corpus so that a refactor which renames or bypasses one of those functions
fails here rather than silently dropping a span from ``--trace 1`` runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import TESTS_DIR
from moodtrends.cli import EXIT_OK, main

REPO = TESTS_DIR.parent
TRACED_CLI = REPO / "perfbench" / "traced_cli.py"
LEXICON = REPO / "src" / "moodtrends" / "data" / "default_lexicon.txt"

SPEC = """\
years = 2010-2015
emails_per_year = 12
seed = 5
noise_sd = 0.8
trend.tension = linear(0.4, 1)
trend.vigor = constant(2)
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    (root / "small.spec").write_text(SPEC)
    path = root / "small.tsv"
    assert main(["synth", "--spec", str(root / "small.spec"), "--out", str(path)]) == EXIT_OK
    return path


def traced(tmp_path, *cli_args: str) -> dict:
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(TRACED_CLI), str(trace), "--", *cli_args,
                           "--output-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    result = json.loads(trace.read_text())
    assert result["rc"] == EXIT_OK
    return result


def test_score_and_analyze_traced(tmp_path, corpus):
    inputs = ["--corpus", str(corpus), "--lexicon", str(LEXICON)]
    score = traced(tmp_path / "score", "score", *inputs)
    analyze = traced(tmp_path / "analyze", "analyze", *inputs, "--emit-svg")
    spans = {span[0] for run in (score, analyze) for span in run["spans"]}
    assert {"corpus.parse", "corpus.filter", "scoring.score",
            "stats.ks", "stats.trend"} <= spans
    for counter in ("corpus.filter_kept", "scoring.docs"):
        assert score["counts"].get(counter, 0) > 0, counter
    assert analyze["counts"].get("stats.ks_tests", 0) > 0

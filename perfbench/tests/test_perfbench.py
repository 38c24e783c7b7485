"""The benchmark's own tests: seeded generators are deterministic, and the
output checks reject corrupted outputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from moodtrends import cli  # noqa: E402

VOC = run.VOC

SMALL = {
    "synth-c7": lambda seed, dest: workloads.synth_c7(seed, dest, per_year=3),
    "ks-scores-60y": lambda seed, dest: workloads.ks_scores_60y(seed, dest, per_year=3),
    "realvocab-letters": lambda seed, dest: workloads.realvocab_letters(
        seed, dest, VOC, per_year=6, non_english_per_year=1, rejects_per_code=2),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic_for_its_seed(tmp_path, name):
    make = SMALL[name]
    first = make(5, tmp_path / "a.tsv")
    make(5, tmp_path / "b.tsv")
    make(6, tmp_path / "c.tsv")
    a, b, c = ((tmp_path / f).read_bytes() for f in ("a.tsv", "b.tsv", "c.tsv"))
    assert a == b
    assert a != c
    assert sum(1 for line in a.split(b"\n") if line.strip()) == first.non_blank_lines


@pytest.fixture(scope="module")
def round_dir(tmp_path_factory):
    """One round of the four commands on a small realvocab corpus."""
    root = tmp_path_factory.mktemp("round")
    inputs = SMALL["realvocab-letters"](9, root / "corpus.tsv")
    stdout = {}
    for cmd in run.COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(run.cli_args(cmd, inputs.corpus, root)) == 0
        stdout[cmd] = buf.getvalue()
    return root, inputs, stdout


def _all_checks(root: Path, inputs, stdout) -> list[str]:
    scores = checks.read_scores(root / "score" / "scores.csv")
    return (checks.check_stats(root / "stats", stdout["stats"], inputs)
            + checks.check_score(root / "score", stdout["score"], inputs)
            + checks.check_ks_tables(root / "analyze", inputs, scores, 1)
            + checks.check_ks_tables(root / "analyze_scores", inputs, scores, 1)
            + checks.check_same_analysis(root / "analyze", root / "analyze_scores"))


def test_checks_pass_on_real_outputs(round_dir):
    assert _all_checks(*round_dir) == []


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(path.read_text("utf-8").splitlines(True)[:-1]), "utf-8")


def _replace_d_column(path: Path) -> None:
    lines = path.read_text("utf-8").splitlines()
    rows = [",".join(r[:3] + ["0.999"] + r[4:])
            for r in (line.split(",") for line in lines[1:])]
    path.write_text("\n".join(lines[:1] + rows) + "\n", "utf-8")


def _recode_rejection(path: Path) -> None:
    text = path.read_text("utf-8")
    path.write_text(text.replace("invalid-date", "malformed-record", 1), "utf-8")


def _touch_trend(path: Path) -> None:
    path.write_text(path.read_text("utf-8") + " ", "utf-8")


@pytest.mark.parametrize("corrupt, target", [
    (_drop_last_line, "analyze/ks_anger.csv"),
    (_replace_d_column, "analyze_scores/ks_vigor.csv"),
    (_drop_last_line, "score/scores.csv"),
    (_recode_rejection, "score/rejections.txt"),
    (_touch_trend, "analyze_scores/trend_fatigue.svg"),
    (_drop_last_line, "stats/histogram.csv"),
])
def test_corrupted_output_trips_the_checks(round_dir, tmp_path, corrupt, target):
    root, inputs, stdout = round_dir
    copy = tmp_path / "round"
    shutil.copytree(root, copy)
    corrupt(copy / target)
    assert _all_checks(copy, inputs, stdout)


def test_wrong_rejection_count_in_stdout_trips_the_checks(round_dir):
    root, inputs, stdout = round_dir
    bad = dict(stdout, stats=stdout["stats"].replace("rejected lines: ", "rejected lines: 1"))
    assert checks.check_stats(root / "stats", bad["stats"], inputs)


def test_times_at_reference_speed_cancel_a_host_slowdown_but_not_a_faster_command():
    def rounds(wall_s, ref_s):
        return [{cmd: run.Op(wall_s, 0, 1024, ref_s) for cmd in run.COMMANDS}] * 3

    runner = SimpleNamespace(setup_s=[0.2, 0.3, 0.4], inputs=SimpleNamespace(kept=100))
    quiet = run.e2e_metrics(runner, rounds(0.9, 0.3))
    slow_host = run.e2e_metrics(runner, rounds(0.9 * 1.6, 0.3 * 1.6))
    faster = run.e2e_metrics(runner, rounds(0.9 * 0.8, 0.3))
    assert quiet["score_s"] == pytest.approx(0.9 * run.REF_S / 0.3)
    assert slow_host["score_s"] == pytest.approx(quiet["score_s"])
    assert faster["score_s"] == pytest.approx(0.8 * quiet["score_s"])
    assert quiet["setup_s"] == 0.3

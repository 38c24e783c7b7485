from __future__ import annotations

import datetime as dt
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from moodtrends.corpus import EmailRecord
from moodtrends.lexicon import compile_lexicon, load_default_lexicon
from moodtrends.scoring import ScoredRecord, YearBucket

TESTS_DIR = Path(__file__).parent
PORTER_DATA = TESTS_DIR / "data" / "porter"


@pytest.fixture(scope="session")
def default_lexicon():
    return load_default_lexicon()


@pytest.fixture(scope="session")
def matcher(default_lexicon):
    return compile_lexicon(default_lexicon)


def run_python(*args, timeout=None):
    """Run a child interpreter on args; the child imports the same package
    this test process imported."""
    import os
    import subprocess

    import moodtrends
    package_root = str(Path(moodtrends.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def make_record(body: str, rec_id: str = "r1", compose: str = "2006-03-01",
                delivery: str = "2010-03-01") -> EmailRecord:
    return EmailRecord(
        id=rec_id,
        compose_date=dt.date.fromisoformat(compose),
        delivery_date=dt.date.fromisoformat(delivery),
        body=body,
    )


def vector_bucket(vectors, zero_match_count: int = 0, year: int = 2010) -> YearBucket:
    """A year bucket of one matched row per vector, its components stored as given."""
    return YearBucket(tuple(ScoredRecord(f"d{i}", year, tuple(v), 1)
                            for i, v in enumerate(vectors)), zero_match_count)


@pytest.fixture
def record_factory():
    return make_record

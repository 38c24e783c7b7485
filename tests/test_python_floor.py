"""The package source parses under the oldest Python that pyproject.toml's
``requires-python`` admits. This checks syntax only (``except*`` and other
3.11+ grammar), not the library APIs a newer interpreter adds."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import moodtrends

FLOOR = (3, 10)
SOURCES = sorted(Path(moodtrends.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_floor(path):
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=FLOOR)


def test_floor_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=FLOOR)

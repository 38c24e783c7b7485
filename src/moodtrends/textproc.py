"""Tokenization and stemming shared by lexicon compilation, scoring and
corpus statistics."""

from __future__ import annotations

import re
from functools import lru_cache

from . import porter

# Runs of a-z letters, joined by internal apostrophes only ("don't" stays
# one token, "'ello" loses its quote); anything else separates.
_TOKEN_RE = re.compile(r"[a-z]+(?:'+[a-z]+)*")


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens.

    Digits, punctuation, symbols and any letter that does not lowercase into
    a-z act as separators; apostrophes are kept only word-internally.
    """
    return _TOKEN_RE.findall(text.lower())


@lru_cache(maxsize=262144)
def porter_stem(word: str) -> str:
    """Porter stem of a token; apostrophes are dropped before stemming."""
    if "'" in word:
        word = word.replace("'", "")
    return porter.stem(word)

"""Tokenization and stemming shared by lexicon compilation, scoring and
corpus statistics."""

from __future__ import annotations

import string
from functools import lru_cache

from . import porter

# every ASCII character but a-z and the apostrophe separates words
_SEPARATE = str.maketrans({c: " " for c in map(chr, range(128))
                           if c not in string.ascii_lowercase + "'"})


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens.

    Digits, punctuation, symbols and any letter that does not lowercase into
    a-z act as separators; apostrophes are kept only word-internally.
    """
    text = text.lower()
    if not text.isascii():
        # after lower() no non-ASCII character is part of a word
        text = text.encode("ascii", "replace").decode("ascii")
    text = f" {text.translate(_SEPARATE)} "
    words = text.split()
    # padded, a word starts or ends with an apostrophe only beside a space
    if " '" in text or "' " in text:
        words = [w for w in (w.strip("'") for w in words) if w]
    return words


@lru_cache(maxsize=262144)
def porter_stem(word: str) -> str:
    """Porter stem of a token; apostrophes are dropped before stemming."""
    return porter.stem(word.replace("'", ""))

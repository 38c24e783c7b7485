"""Tokenization and stemming shared by lexicon compilation, scoring and
corpus statistics."""

from __future__ import annotations

from functools import lru_cache

from . import porter

# per byte: A-Z lowercase to a-z, a-z and the apostrophe stay, and every
# other byte separates words
_WORD_BYTES = bytes(c | 0x20 if ord("A") <= c <= ord("Z")
                    else c if ord("a") <= c <= ord("z") or c == ord("'")
                    else ord(" ") for c in range(256))


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens.

    Digits, punctuation, symbols and any letter that does not lowercase into
    a-z act as separators; apostrophes are kept only word-internally.
    """
    if text.isascii():
        data = text.encode("ascii")
    else:
        # after lower() no non-ASCII character is part of a word
        data = text.lower().encode("ascii", "replace")
    text = data.translate(_WORD_BYTES).decode("ascii")
    words = text.split()
    if "'" in text:
        # padded, a word starts or ends with an apostrophe only beside a space
        text = f" {text} "
        if " '" in text or "' " in text:
            words = [w for w in (w.strip("'") for w in words) if w]
    return words


@lru_cache(maxsize=262144)
def porter_stem(word: str) -> str:
    """Porter stem of a token; apostrophes are dropped before stemming."""
    return porter.stem(word.replace("'", ""))

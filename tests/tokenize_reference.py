"""The translate-and-split tokenizer ``moodtrends.textproc.tokenize`` used
before it moved onto a byte table; kept here as the reference for its tokens.
"""

from __future__ import annotations

import string

# every ASCII character but a-z and the apostrophe separates words
_SEPARATE = str.maketrans({c: " " for c in map(chr, range(128))
                           if c not in string.ascii_lowercase + "'"})


def tokenize(text: str) -> list[str]:
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

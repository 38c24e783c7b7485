"""Porter suffix-stripping stemmer.

Faithful port of the algorithm author's canonical implementation, including
its long-standing refinements over the 1980 journal text (step 2 uses
``bli -> ble`` rather than ``abli -> able``, adds ``logi -> log``, and words
of length <= 2 are returned untouched). This is the variant the published
sample vocabulary / output pair was generated with, so conformance is
testable word-for-word.

Input domain is lowercase ASCII letter strings; callers strip anything else
first (see :mod:`moodtrends.textproc`).
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _cons(b: str, i: int) -> bool:
    ch = b[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return True if i == 0 else not _cons(b, i - 1)
    return True


def _measure(b: str, j: int) -> int:
    """Number of vowel-consonant sequences in b[0..j] (the algorithm's m)."""
    n = 0
    i = 0
    while True:
        if i > j:
            return n
        if not _cons(b, i):
            break
        i += 1
    i += 1
    while True:
        while True:
            if i > j:
                return n
            if _cons(b, i):
                break
            i += 1
        i += 1
        n += 1
        while True:
            if i > j:
                return n
            if not _cons(b, i):
                break
            i += 1
        i += 1


def _vowel_in_stem(b: str, j: int) -> bool:
    return any(not _cons(b, i) for i in range(j + 1))


def _double_cons(b: str) -> bool:
    return len(b) >= 2 and b[-1] == b[-2] and _cons(b, len(b) - 1)


def _cvc(b: str, i: int) -> bool:
    # consonant-vowel-consonant ending at i, last consonant not w, x or y
    if i < 2 or not _cons(b, i) or _cons(b, i - 1) or not _cons(b, i - 2):
        return False
    return b[i] not in "wxy"


def _step1ab(b: str) -> str:
    if b.endswith("s"):
        if b.endswith("sses"):
            b = b[:-2]
        elif b.endswith("ies"):
            b = b[:-2]
        elif not b.endswith("ss"):
            b = b[:-1]
    if b.endswith("eed"):
        if _measure(b, len(b) - 4) > 0:
            b = b[:-1]
    elif b.endswith("ed") and _vowel_in_stem(b, len(b) - 3):
        b = _tidy_after_deletion(b[:-2])
    elif b.endswith("ing") and _vowel_in_stem(b, len(b) - 4):
        b = _tidy_after_deletion(b[:-3])
    return b


def _tidy_after_deletion(b: str) -> str:
    if b.endswith(("at", "bl", "iz")):
        return b + "e"
    if _double_cons(b):
        return b if b[-1] in "lsz" else b[:-1]
    if _measure(b, len(b) - 1) == 1 and _cvc(b, len(b) - 1):
        return b + "e"
    return b


def _step1c(b: str) -> str:
    if b.endswith("y") and _vowel_in_stem(b, len(b) - 2):
        b = b[:-1] + "i"
    return b


# (suffix, replacement) groups keyed by the second-to-last character; within a
# group the first suffix that matches consumes the step, whether or not the
# measure condition lets the replacement happen.
_STEP2 = {
    "a": (("ational", "ate"), ("tional", "tion")),
    "c": (("enci", "ence"), ("anci", "ance")),
    "e": (("izer", "ize"),),
    "l": (("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"),
          ("ousli", "ous")),
    "o": (("ization", "ize"), ("ation", "ate"), ("ator", "ate")),
    "s": (("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
          ("ousness", "ous")),
    "t": (("aliti", "al"), ("iviti", "ive"), ("biliti", "ble")),
    "g": (("logi", "log"),),
}

_STEP3 = {
    "e": (("icate", "ic"), ("ative", ""), ("alize", "al")),
    "i": (("iciti", "ic"),),
    "l": (("ical", "ic"), ("ful", "")),
    "s": (("ness", ""),),
}

_STEP4 = {
    "a": ("al",),
    "c": ("ance", "ence"),
    "e": ("er",),
    "i": ("ic",),
    "l": ("able", "ible"),
    "n": ("ant", "ement", "ment", "ent"),
    "s": ("ism",),
    "t": ("ate", "iti"),
    "u": ("ous",),
    "v": ("ive",),
    "z": ("ize",),
}


def _step2(b: str) -> str:
    for suffix, repl in _STEP2.get(b[-2:-1], ()):
        if b.endswith(suffix):
            stem = len(b) - len(suffix)
            if _measure(b, stem - 1) > 0:
                b = b[:stem] + repl
            break
    return b


def _step3(b: str) -> str:
    for suffix, repl in _STEP3.get(b[-1], ()):
        if b.endswith(suffix):
            stem = len(b) - len(suffix)
            if _measure(b, stem - 1) > 0:
                b = b[:stem] + repl
            break
    return b


def _step4(b: str) -> str:
    penult = b[-2:-1]
    if penult == "o":
        # -ion only counts when the stem ends in s or t; otherwise -ou
        if b.endswith("ion") and len(b) >= 4 and b[-4] in "st":
            stem = len(b) - 3
        elif b.endswith("ou"):
            stem = len(b) - 2
        else:
            return b
        if _measure(b, stem - 1) > 1:
            b = b[:stem]
        return b
    for suffix in _STEP4.get(penult, ()):
        if b.endswith(suffix):
            stem = len(b) - len(suffix)
            if _measure(b, stem - 1) > 1:
                b = b[:stem]
            break
    return b


def _step5(b: str) -> str:
    if b.endswith("e"):
        a = _measure(b, len(b) - 1)
        if a > 1 or (a == 1 and not _cvc(b, len(b) - 2)):
            b = b[:-1]
    if b.endswith("l") and _double_cons(b) and _measure(b, len(b) - 1) > 1:
        b = b[:-1]
    return b


def stem(word: str) -> str:
    """Stem a lowercase letter string; words of length <= 2 pass through."""
    if len(word) <= 2:
        return word
    b = _step1ab(word)
    b = _step1c(b)
    b = _step2(b)
    b = _step3(b)
    b = _step4(b)
    b = _step5(b)
    return b

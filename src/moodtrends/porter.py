"""Porter suffix-stripping stemmer.

Faithful port of the algorithm author's canonical implementation, including
its long-standing refinements over the 1980 journal text (step 2 uses
``bli -> ble`` rather than ``abli -> able``, adds ``logi -> log``, and words
of length <= 2 are returned untouched). This is the variant the published
sample vocabulary / output pair was generated with, so conformance is
testable word-for-word.

Every condition is read from the word's consonant/vowel pattern ``cv``, one
``c`` or ``v`` per letter: ``a e i o u`` are vowels, ``y`` is a consonant at
the start of the word or after a vowel and a vowel after a consonant, and
every other letter is a consonant. A letter's class depends only on the
letters before it, so a stem ``b[:k]`` has the pattern ``cv[:k]``. Its
measure m is ``cv[:k].count("vc")``, *v* is ``"v" in cv[:k]``, and *o* is
``cv[:k].endswith("cvc")`` with the last letter not w, x or y; a double
consonant ending is ``b[-1] == b[-2]`` with ``cv[-1] == "c"``. A pattern
is built only for the stem that a matched suffix leaves.

Input domain is lowercase ASCII letter strings; callers strip anything else
first (see :mod:`moodtrends.textproc`).

Porter only rewrites the end of a word: for every word w, ``stem(w)`` is
``w[:j] + t`` for some j, with t one of ``""``, ``e``, ``i`` or ``l``. Step
1a keeps a prefix; step 1b adds at most an ``e``; step 1c swaps a final
``y`` for ``i``; step 2 adds at most an ``e``, except ``biliti -> ble``,
whose ``le`` step 5 always cuts back to ``l``; steps 3, 4 and 5 only remove
letters. So every word that stems to s begins with ``stem_prefix(s)``, and
a word that begins with no lexicon stem's prefix cannot stem into the
lexicon.
"""

from __future__ import annotations

_CV = str.maketrans("abcdefghijklmnopqrstuvwxyz", "vcccvcccvcccccvcccccvccccc")


def _pattern(b: str) -> str:
    cv = b.translate(_CV)
    i = b.find("y", 1)
    while i > 0:
        if cv[i - 1] == "c":
            cv = f"{cv[:i]}v{cv[i + 1:]}"
        i = b.find("y", i + 1)
    return cv


def _cvc(b: str, cv: str) -> bool:
    return cv.endswith("cvc") and b[-1] not in "wxy"


def _step1ab(b: str) -> str:
    if b.endswith(("sses", "ies")):
        b = b[:-2]
    elif b.endswith("s") and not b.endswith("ss"):
        b = b[:-1]
    if b.endswith("eed"):
        return b[:-1] if _pattern(b[:-3]).count("vc") else b
    stem = b[:-2] if b.endswith("ed") else b[:-3] if b.endswith("ing") else ""
    cv = _pattern(stem)
    if "v" not in cv:
        return b
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if stem[-1] == stem[-2:-1] and cv[-1] == "c":
        return stem if stem[-1] in "lsz" else stem[:-1]
    if cv.count("vc") == 1 and _cvc(stem, cv):
        return stem + "e"
    return stem


# (suffix, replacement) groups keyed by the word's second-to-last letter
# (steps 2 and 4) or last letter (step 3); within a group the first suffix that
# matches consumes the step, whether or not the measure allows the replacement.
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
    "a": (("al", ""),), "c": (("ance", ""), ("ence", "")), "e": (("er", ""),),
    "i": (("ic", ""),), "l": (("able", ""), ("ible", "")),
    "n": (("ant", ""), ("ement", ""), ("ment", ""), ("ent", "")),
    "o": (("ion", ""), ("ou", "")), "s": (("ism", ""),),
    "t": (("ate", ""), ("iti", "")), "u": (("ous", ""),), "v": (("ive", ""),),
    "z": (("ize", ""),),
}


def _replace(b: str, table: dict, key: str, min_m: int) -> str:
    """Swap the first suffix of table[key] that b ends with for its
    replacement, if the measure of the stem before it exceeds min_m."""
    for suffix, repl in table.get(key, ()):
        if b.endswith(suffix):
            if suffix == "ion" and not b.endswith(("sion", "tion")):
                continue  # -ion needs a stem ending in s or t; try -ou
            stem = b[:-len(suffix)]
            return stem + repl if _pattern(stem).count("vc") > min_m else b
    return b


def stem_prefix(s: str) -> str:
    """The prefix every word stemming to s begins with: s without a final
    e, i or l, the letters a stem may add."""
    return s[:-1] if s.endswith(("e", "i", "l")) else s


def stem(word: str) -> str:
    """Stem a lowercase letter string; words of length <= 2 pass through."""
    if len(word) <= 2:
        return word
    b = _step1ab(word)
    if b.endswith("y") and "v" in _pattern(b[:-1]):  # step 1c
        b = b[:-1] + "i"
    b = _replace(b, _STEP2, b[-2:-1], 0)
    b = _replace(b, _STEP3, b[-1], 0)
    b = _replace(b, _STEP4, b[-2:-1], 1)
    if b.endswith("e"):  # step 5
        cv = _pattern(b[:-1])
        m = cv.count("vc")
        if m > 1 or m == 1 and not _cvc(b[:-1], cv):
            b = b[:-1]
    if b.endswith("ll") and _pattern(b).count("vc") > 1:
        b = b[:-1]
    return b

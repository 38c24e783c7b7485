from __future__ import annotations

import itertools
import os
import re
import string
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

import porter_reference
import tokenize_reference
from moodtrends import porter
from moodtrends.textproc import porter_stem, tokenize


def old_tokenize(text: str) -> list[str]:
    """The run-then-strip tokenizer the single regex replaced; the reference."""
    out = []
    for run in re.findall(r"[a-z']+", text.lower()):
        word = run.strip("'")
        if word:
            out.append(word)
    return out


def regex_tokenize(text: str) -> list[str]:
    """The single regex the translate-and-split tokenizer replaced."""
    return re.findall(r"[a-z]+(?:'+[a-z]+)*", text.lower())


class TestTokenize:
    def test_sentence(self):
        text = "I am sure your NASA application was accepted!"
        assert tokenize(text) == ["i", "am", "sure", "your", "nasa",
                                  "application", "was", "accepted"]

    def test_internal_apostrophe_kept(self):
        assert tokenize("don't worry") == ["don't", "worry"]

    def test_digits_are_separators(self):
        assert tokenize("2006-2036") == []
        assert tokenize("year2006ends") == ["year", "ends"]

    def test_leading_trailing_apostrophes_stripped(self):
        assert tokenize("'ello 'tis rock'n'roll'") == ["ello", "tis", "rock'n'roll"]

    def test_punctuation_and_unicode_separators(self):
        assert tokenize("hello,world") == ["hello", "world"]
        assert tokenize("café naïve") == ["caf", "na", "ve"]
        assert tokenize("beat-down") == ["beat", "down"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("'' 123 !!!") == []

    @given(st.text())
    @settings(max_examples=200)
    def test_tokens_only_letters_and_internal_apostrophes(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert set(tok) <= set(string.ascii_lowercase + "'")
            assert not tok.startswith("'") and not tok.endswith("'")

    @given(st.text(), st.text())
    @settings(max_examples=200)
    def test_concatenation_with_separator(self, left, right):
        assert tokenize(left + " " + right) == tokenize(left) + tokenize(right)

    def test_apostrophe_run_is_linear(self):
        # a strip loop that rescans the text once per apostrophe would not finish
        start = time.perf_counter()
        assert tokenize("x " + "'" * 1_000_000 + " y") == ["x", "y"]
        assert time.perf_counter() - start < 5.0

    @given(st.text(st.one_of(st.sampled_from("ab'' -ZİK\n\r\t1.\u017f\u00df\u2019"),
                             st.characters()), max_size=60))
    # U+212A KELVIN SIGN lowercases to ASCII k; U+0130 to i plus a combining dot
    @example("\u212aelvin \u0130stanbul")
    # U+017F LATIN SMALL LETTER LONG S uppercases to ASCII S but is no ASCII letter
    @example("lo\u017fs")
    @example("stra\u00dfe")
    # a lone surrogate, which a JSONL body can carry
    @example("a\ud800b")
    # characters str.split() also treats as whitespace
    @example("a\x1cb\x1dc\x1ed\x1fe\x85f\xa0g\u2028h")
    @example("''a''b''")
    @example("a' 'b")
    @example("' '")
    @example("x " + "'" * 10_000 + " y")
    @example("''")
    @example("'a'")
    @example("rock 'n' roll")
    @example("Dear me,\r\nI was\ttense\t\r\n")
    @settings(max_examples=500)
    def test_matches_run_then_strip_reference(self, text):
        # and the single regex that replaced it, and the str.translate
        # tokenizer that the byte table replaced
        assert (tokenize(text) == old_tokenize(text) == regex_tokenize(text)
                == tokenize_reference.tokenize(text))


class TestPorterStem:
    def test_published_fixture_pairs(self):
        # spot checks frozen from the reference vocabulary/output pair
        pairs = {
            "angry": "angri",
            "angrily": "angrili",
            "caresses": "caress",
            "ponies": "poni",
            "feed": "feed",
            "agreed": "agre",
            "plastered": "plaster",
            "motoring": "motor",
            "hopping": "hop",
            "falling": "fall",
            "happy": "happi",
            "happiness": "happi",
            "relational": "relat",
            "conditional": "condit",
            "possibly": "possibl",
            "apology": "apolog",
            "controlling": "control",
            "generalization": "gener",
            "discouraged": "discourag",
            "daunted": "daunt",
        }
        for word, expected in pairs.items():
            assert porter.stem(word) == expected, word

    def test_short_words_unchanged(self):
        for w in ("a", "is", "be", "by", "ax"):
            assert porter.stem(w) == w

    def test_deterministic(self):
        assert porter.stem("optimistic") == porter.stem("optimistic")

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=30))
    @settings(max_examples=500)
    def test_length_grows_by_at_most_one(self, word):
        assert len(porter.stem(word)) <= len(word) + 1

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_stem_is_lowercase_letters(self, word):
        assert set(porter.stem(word)) <= set(string.ascii_lowercase)

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20)
           | st.text(alphabet="aeiylnost", min_size=1, max_size=20))
    @example("yyy")
    @example("kyy")
    @example("dyby")
    @example("syzygy")
    @example("onion")
    @example("opinion")
    @example("adoption")
    @example("fizzed")
    @settings(max_examples=1000)
    def test_matches_character_port_reference(self, word):
        # tests/porter_reference.py is the character-by-character port of the
        # C reference that the consonant/vowel-pattern stemmer replaced
        assert porter.stem(word) == porter_reference.stem(word)


def assert_prefix_lemma(word: str) -> None:
    """stem(word) is a prefix of word plus at most one added e, i or l, so
    word begins with stem_prefix of its stem."""
    s = porter.stem(word)
    assert word.startswith(porter.stem_prefix(s)), (word, s)
    assert s[len(os.path.commonprefix([word, s])):] in ("", "e", "i", "l"), (word, s)


# every suffix a Porter step tests for, and the -y forms of those ending in
# -i that step 1c makes, for stacking onto short stems
PORTER_SUFFIXES = sorted(
    {suffix for table in (porter._STEP2, porter._STEP3, porter._STEP4)
     for group in table.values() for suffix, _ in group}
    | {suffix[:-1] + "y" for table in (porter._STEP2, porter._STEP3)
       for group in table.values() for suffix, _ in group if suffix.endswith("i")}
    | {"s", "es", "ies", "sses", "ed", "eed", "ing", "y", "e", "ly", "ity", "ll",
       "at", "bl", "iz"})


class TestStemPrefixLemma:
    """The lemma in moodtrends.porter that the scorer's stem memo relies on:
    no word stems to s unless it begins with stem_prefix(s)."""

    def test_reference_vocabulary(self):
        from conftest import PORTER_DATA
        for word in (PORTER_DATA / "voc.txt").read_text().split():
            assert_prefix_lemma(word)

    def test_every_word_of_up_to_four_letters(self):
        letters = string.ascii_lowercase
        for size in range(1, 5):
            for chars in itertools.product(letters, repeat=size):
                assert_prefix_lemma("".join(chars))

    @given(st.text(alphabet=string.ascii_lowercase, max_size=6),
           st.lists(st.sampled_from(PORTER_SUFFIXES), min_size=1, max_size=4))
    # possibility -> possibl: the added le of biliti -> ble is cut back to l
    @example("possib", ["ility"])
    @example("ey", ["ed"])
    @example("go", ["ing"])
    @settings(max_examples=3000, derandomize=True)
    def test_stacked_suffixes(self, base, suffixes):
        word = base + "".join(suffixes)
        if word:
            assert_prefix_lemma(word)


class TestPorterWrapper:
    def test_apostrophes_stripped_before_stemming(self):
        assert porter_stem("don't") == porter.stem("dont")
        assert porter_stem("it's") == porter.stem("its")

    def test_token_stream(self):
        # the surface -> stem pairing that lexicon compilation and scoring share
        toks = tokenize("Feeling daunted today")
        assert [(t, porter_stem(t)) for t in toks] == [
            ("feeling", "feel"), ("daunted", "daunt"), ("today", "todai")]


class TestPorterVocabularyConformance:
    """Full agreement with the reference vocabulary (also criterion 1)."""

    def test_full_vocabulary(self):
        from conftest import PORTER_DATA
        voc = (PORTER_DATA / "voc.txt").read_text().split()
        out = (PORTER_DATA / "output.txt").read_text().split()
        assert len(voc) == len(out) == 23531
        mismatches = [(w, porter.stem(w), o)
                      for w, o in zip(voc, out) if porter.stem(w) != o]
        assert mismatches == []

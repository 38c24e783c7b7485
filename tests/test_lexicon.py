from __future__ import annotations

import pytest

from moodtrends.lexicon import SCALES, LexiconError, compile_lexicon, load_lexicon

MINIMAL = """\
# version: mini-1
tense | tension | uptight
sad | depression | sorrowful
angry | anger | mad
lively | vigor | spirited
weary | fatigue | worn out
dazed | confusion | foggy
"""

DISCOURAGED_LINE = ("discouraged | depression | beat down, caved in, crestfallen, "
                    "daunted, deterred, dispirited, downbeat, downcast, glum, "
                    "lost momentum, pessimistic, put off")


def load_lines(text):
    return load_lexicon(text.splitlines())


class TestMoodScale:
    def test_exactly_six_scales_in_fixed_order(self):
        assert [s.value for s in SCALES] == [
            "tension", "depression", "anger", "vigor", "fatigue", "confusion"]


class TestLoadLexicon:
    def test_minimal_valid(self):
        lex = load_lines(MINIMAL)
        assert len(lex.entries) == 6
        assert lex.version == "mini-1"
        assert {e.scale for e in lex.entries} == set(SCALES)

    def test_extended_phrase_list_parsed(self):
        lex = load_lines(MINIMAL.replace(
            "sad | depression | sorrowful", DISCOURAGED_LINE))
        entry = next(e for e in lex.entries if e.main_term == "discouraged")
        assert len(entry.extended) == 12
        assert "daunted" in entry.extended
        assert "lost momentum" in entry.extended

    def test_duplicate_main_term_names_term(self):
        text = MINIMAL + "angry | tension | cross\n"
        with pytest.raises(LexiconError, match="angry"):
            load_lines(text)

    def test_unknown_scale_label(self):
        with pytest.raises(LexiconError, match="melancholia"):
            load_lines(MINIMAL + "blue | melancholia | moody\n")

    def test_missing_scale(self):
        text = "\n".join(MINIMAL.splitlines()[:-1])  # drop confusion
        with pytest.raises(LexiconError, match="confusion"):
            load_lines(text)

    def test_duplicate_phrase_within_entry(self):
        with pytest.raises(LexiconError, match="duplicate phrase"):
            load_lines(MINIMAL.replace("uptight", "uptight, uptight"))

    def test_phrase_too_long(self):
        with pytest.raises(LexiconError, match="longer than"):
            load_lines(MINIMAL.replace("uptight", "one two three four five"))

    def test_uppercase_main_term_rejected(self):
        with pytest.raises(LexiconError, match="lowercase"):
            load_lines(MINIMAL.replace("tense |", "Tense |"))

    def test_empty_lexicon(self):
        with pytest.raises(LexiconError, match="empty"):
            load_lexicon([])

    def test_two_field_lines_allowed(self):
        lex = load_lines(MINIMAL.replace("tense | tension | uptight",
                                         "tense | tension"))
        entry = next(e for e in lex.entries if e.main_term == "tense")
        assert entry.extended == ()

    def test_line_list_input_accepted(self):
        assert len(load_lexicon(MINIMAL.splitlines()).entries) == 6


class TestCompile:
    def test_main_term_stem_sequence_inserted(self, default_lexicon):
        m = compile_lexicon(default_lexicon)
        assert m.main_terms[m.singles["angri"]] == "angry"

    def test_multiword_phrase_two_stems(self, default_lexicon):
        m = compile_lexicon(default_lexicon)
        assert m.main_terms[m.phrases[("lost", "momentum")]] == "discouraged"
        assert m.max_phrase_len >= 2

    def test_collision_first_entry_wins_with_warning(self):
        text = MINIMAL.replace("angry | anger | mad",
                               "angry | anger | cross")
        text = text.replace("dazed | confusion | foggy",
                            "dazed | confusion | cross")
        m = compile_lexicon(load_lines(text))
        assert m.main_terms[m.singles["cross"]] == "angry"
        assert len(m.warnings) == 1
        w = m.warnings[0]
        assert w.term == "dazed"
        assert w.colliding_term == "angry"
        assert w.sequence == ("cross",)

    def test_compile_idempotent(self, default_lexicon):
        a = compile_lexicon(default_lexicon)
        b = compile_lexicon(default_lexicon)
        assert a == b
        assert a.warnings == b.warnings

    def test_every_main_term_reachable(self, default_lexicon):
        from moodtrends.textproc import porter_stem, tokenize
        m = compile_lexicon(default_lexicon)
        for entry in default_lexicon.entries:
            seq = tuple(porter_stem(w) for w in tokenize(entry.main_term))
            idx = m.singles[seq[0]] if len(seq) == 1 else m.phrases[seq]
            assert m.main_terms[idx] == entry.main_term

    def test_scale_of_total_over_main_terms(self, default_lexicon):
        m = compile_lexicon(default_lexicon)
        assert len(m.scale_index) == len(m.main_terms)
        for i, entry in enumerate(default_lexicon.entries):
            assert SCALES[m.scale_index[i]] is entry.scale


class TestDefaultLexicon:
    def test_loads_clean(self, default_lexicon, matcher):
        assert matcher.warnings == []
        assert {e.scale for e in default_lexicon.entries} == set(SCALES)
        assert len(default_lexicon.entries) >= 6

    def test_worked_example_terms_present(self, matcher):
        assert matcher.main_terms[matcher.singles["daunt"]] == "discouraged"
        assert matcher.main_terms[matcher.singles["angrili"]] == "angry"

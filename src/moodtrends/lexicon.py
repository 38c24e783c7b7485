"""Mood lexicon: main adjectives with scale assignments and extended synonym
phrases, compiled into a stem-sequence matcher.

Lexicon file format (line-oriented, hand-editable):

    # comment
    # version: 2024-01
    main_term | scale | phrase, phrase, ...

The third field is optional. Scales are the six fixed mood dimensions.
"""

from __future__ import annotations

import enum
import pkgutil
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from . import porter
from .textproc import porter_stem, tokenize

MAX_PHRASE_WORDS = 4


class MoodScale(enum.Enum):
    """The six mood dimensions, in fixed vector order."""

    TENSION = "tension"
    DEPRESSION = "depression"
    ANGER = "anger"
    VIGOR = "vigor"
    FATIGUE = "fatigue"
    CONFUSION = "confusion"

    def __str__(self) -> str:
        return self.value


SCALES: tuple[MoodScale, ...] = tuple(MoodScale)
SCALE_INDEX: dict[MoodScale, int] = {s: i for i, s in enumerate(SCALES)}


class LexiconError(ValueError):
    """Raised when a lexicon file violates the format or its invariants."""


class LexiconEntry(NamedTuple):
    main_term: str
    scale: MoodScale
    extended: tuple[str, ...] = ()


class MoodLexicon(NamedTuple):
    entries: tuple[LexiconEntry, ...]
    version: str = "unversioned"


class CompileWarning(NamedTuple):
    """A stem-sequence collision resolved at compile time."""

    term: str
    colliding_term: str
    sequence: tuple[str, ...]


def _check_phrase(line_no: int, kind: str, phrase: str) -> None:
    """A main term or extended phrase holds 1 to MAX_PHRASE_WORDS words."""
    words = tokenize(phrase)
    if not words:
        raise LexiconError(f"line {line_no}: {kind} {phrase!r} has no alphabetic words")
    if len(words) > MAX_PHRASE_WORDS:
        raise LexiconError(
            f"line {line_no}: {kind} {phrase!r} longer than {MAX_PHRASE_WORDS} words")


def _parse_entry_line(line: str, line_no: int) -> LexiconEntry:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) not in (2, 3):
        raise LexiconError(f"line {line_no}: expected 'main | scale | phrases', got {line!r}")
    main_term, scale_label = parts[0], parts[1]
    if not main_term:
        raise LexiconError(f"line {line_no}: empty main term")
    if main_term != main_term.lower():
        raise LexiconError(f"line {line_no}: main term {main_term!r} must be lowercase")
    _check_phrase(line_no, "main term", main_term)
    try:
        scale = MoodScale(scale_label.lower())
    except ValueError:
        raise LexiconError(f"line {line_no}: unknown scale {scale_label!r}") from None
    extended: list[str] = []
    if len(parts) == 3 and parts[2]:
        for raw in parts[2].split(","):
            phrase = " ".join(raw.split()).lower()
            if not phrase:
                raise LexiconError(f"line {line_no}: empty extended phrase under {main_term!r}")
            _check_phrase(line_no, "phrase", phrase)
            if phrase in extended:
                raise LexiconError(
                    f"line {line_no}: duplicate phrase {phrase!r} under {main_term!r}")
            extended.append(phrase)
    return LexiconEntry(main_term=main_term, scale=scale, extended=tuple(extended))


def load_lexicon(source: IO[str] | Iterable[str]) -> MoodLexicon:
    """Parse and validate a lexicon from a text stream or its lines.

    Raises LexiconError naming the offending term/line on duplicate main
    terms, unknown scale labels, malformed phrases, or a scale with no
    entries.
    """
    entries: list[LexiconEntry] = []
    seen: dict[str, int] = {}
    version = "unversioned"
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("version:"):
                version = body.split(":", 1)[1].strip()
            continue
        entry = _parse_entry_line(line, line_no)
        if entry.main_term in seen:
            raise LexiconError(
                f"line {line_no}: duplicate main term {entry.main_term!r} "
                f"(first defined on line {seen[entry.main_term]})")
        seen[entry.main_term] = line_no
        entries.append(entry)
    if not entries:
        raise LexiconError("lexicon is empty")
    missing = [s.value for s in SCALES if s not in {e.scale for e in entries}]
    if missing:
        raise LexiconError(f"scales with no entries: {', '.join(missing)}")
    return MoodLexicon(entries=tuple(entries), version=version)


def load_lexicon_file(path: str | Path) -> MoodLexicon:
    """Load a lexicon file; a leading UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return load_lexicon(fh)


def load_default_lexicon() -> MoodLexicon:
    """The lexicon shipped with the package (a non-proprietary stand-in)."""
    text = pkgutil.get_data("moodtrends", "data/default_lexicon.txt").decode("utf-8")
    return load_lexicon(text.splitlines())


class StemMemo(dict):
    """Token -> its stem if that is one of ``stems``, else ``""``; filled on
    first lookup.

    Only a token whose apostrophe-free form begins with the stem_prefix of
    some stem is stemmed at all: by the lemma in :mod:`moodtrends.porter` no
    other token can stem to one of them.
    """

    def __init__(self, stems: frozenset[str]) -> None:
        super().__init__()
        self.stems = stems
        # the prefixes by initial letter, so a test is one C-level startswith
        # over a few of them; an empty prefix (of stem e, i or l) begins any word
        self._prefixes: dict[str, tuple[str, ...]] = {}
        for prefix in sorted(map(porter.stem_prefix, stems)):
            for initial in prefix[:1] or "abcdefghijklmnopqrstuvwxyz":
                self._prefixes[initial] = self._prefixes.get(initial, ()) + (prefix,)

    def __missing__(self, token: str) -> str:
        word = token.replace("'", "")
        stem = ""
        if word.startswith(self._prefixes.get(word[:1], ())):
            stem = porter.stem(word)
            if stem not in self.stems:
                stem = ""
        self[token] = stem
        return stem


class CompiledMatcher(NamedTuple):
    """Stem sequences mapped to main-term indices, ready for scanning.

    ``scale_index[i]`` is the vector position of main term i's scale.
    Single-stem sequences live in ``singles``, longer ones in ``phrases``;
    ``phrase_heads`` holds the first stem of every multi-stem sequence so the
    scorer can skip phrase lookups for most tokens.
    ``stem_memo`` maps each token the scorer has seen to its stem, or to
    ``""`` when that is no stem of the lexicon; ``""`` is in no table, so it
    matches nothing, and the scorer visits only the positions whose stem is
    non-empty.
    """

    main_terms: tuple[str, ...]
    scale_index: tuple[int, ...]
    singles: dict[str, int]
    phrases: dict[tuple[str, ...], int]
    phrase_heads: frozenset[str]
    max_phrase_len: int
    warnings: list[CompileWarning]
    stem_memo: StemMemo


def compile_lexicon(lex: MoodLexicon) -> CompiledMatcher:
    """Stem every main term and extended phrase and build the matcher.

    A stem sequence claimed by two different main terms is kept for the
    earlier entry (file order) and reported in the warning list, never
    dropped silently. Re-compiling the same lexicon yields identical tables
    and an empty stem memo.
    """
    main_terms = tuple(e.main_term for e in lex.entries)
    singles: dict[str, int] = {}
    phrases: dict[tuple[str, ...], int] = {}
    warnings: list[CompileWarning] = []
    for owner, entry in enumerate(lex.entries):
        for phrase in (entry.main_term, *entry.extended):
            seq = tuple(porter_stem(w) for w in tokenize(phrase))
            table, key = (singles, seq[0]) if len(seq) == 1 else (phrases, seq)
            first = table.setdefault(key, owner)
            if first != owner:
                warnings.append(CompileWarning(term=entry.main_term,
                                               colliding_term=main_terms[first],
                                               sequence=seq))
    return CompiledMatcher(
        main_terms=main_terms,
        scale_index=tuple(SCALE_INDEX[e.scale] for e in lex.entries),
        singles=singles,
        phrases=phrases,
        phrase_heads=frozenset(seq[0] for seq in phrases),
        max_phrase_len=max(map(len, phrases), default=1),
        warnings=warnings,
        # a colliding sequence is already a key: every term's stems are here
        stem_memo=StemMemo(frozenset(singles).union(*phrases)),
    )

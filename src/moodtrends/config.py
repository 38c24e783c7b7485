"""Pipeline configuration: flat ``key = value`` files, every key overridable
by the CLI flag of the same name."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .corpus import DEFAULT_ENGLISH_THRESHOLD, FORMATS

ALPHA_SIGNIFICANT = 0.05
ALPHA_MARGINAL = 0.10


class ConfigError(ValueError):
    """Bad configuration file or inconsistent settings."""


@dataclass
class PipelineConfig:
    corpus_path: str | None = None
    corpus_format: str = "tsv"
    lexicon_path: str | None = None
    year_min: int | None = None
    year_max: int | None = None
    english_threshold: float = DEFAULT_ENGLISH_THRESHOLD
    alpha_significant: float = ALPHA_SIGNIFICANT
    alpha_marginal: float = ALPHA_MARGINAL
    output_dir: str = "out"
    emit_svg: bool = False
    top_n: int = 20

    def validate(self) -> None:
        if not (0.0 < self.alpha_significant < self.alpha_marginal < 1.0):
            raise ConfigError(
                "need 0 < alpha_significant < alpha_marginal < 1 "
                f"(got {self.alpha_significant} and {self.alpha_marginal})")
        if (self.year_min is None) != (self.year_max is None):
            raise ConfigError("year_min and year_max must be set together")
        if self.year_min is not None and self.year_min > self.year_max:
            raise ConfigError(f"year_min {self.year_min} > year_max {self.year_max}")
        if self.corpus_format not in FORMATS:
            raise ConfigError(f"corpus_format must be {' or '.join(FORMATS)}, "
                              f"got {self.corpus_format!r}")
        if not (0.0 <= self.english_threshold <= 1.0):
            raise ConfigError(f"english_threshold must be in [0, 1], got {self.english_threshold}")
        if self.top_n < 0:
            raise ConfigError("top_n must be >= 0")
        for key in ("corpus_path", "lexicon_path", "output_dir"):
            if "\0" in (getattr(self, key) or ""):
                raise ConfigError(f"{key} contains a NUL byte")

    def in_range(self, year: int) -> bool:
        """Whether a delivery year is inside the run's year window (inclusive;
        every year when no window is set)."""
        return self.year_min is None or self.year_min <= year <= self.year_max


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Read a flat key = value file; ``#`` starts a comment line, a leading
    UTF-8 byte-order mark is skipped and a key may appear only once."""
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in pairs:
                raise ConfigError(f"{path}:{line_no}: repeated key {key!r} "
                                  f"(first on line {first_line[key]})")
            pairs[key] = value.strip()
            first_line[key] = line_no
    return pairs


def _coerce(name: str, value: str, target_type: type) -> object:
    try:
        return _BOOLS[value.lower()] if target_type is bool else target_type(value)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {name}: {value!r}") from None


def _value_type(hint) -> type:
    """The type a key's value is coerced to: ``int | None`` -> int."""
    args = [a for a in get_args(hint) if a is not type(None)]
    return args[0] if args else hint


_HINTS = get_type_hints(PipelineConfig)
# every config key (and CLI override) with its value type, in field order
KEY_TYPES: dict[str, type] = {f.name: _value_type(_HINTS[f.name])
                              for f in fields(PipelineConfig)}


def apply_overrides(cfg: PipelineConfig, pairs: dict[str, str | None]) -> PipelineConfig:
    for key, value in pairs.items():
        if value is None:
            continue
        if key not in KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, value, KEY_TYPES[key]))
    return cfg

"""Contracts of the record and config types: immutable named tuples, a
config key table in field order, overrides that return a new config, and
the two classes that keep constructors of their own (YearBucket converts
and checks its vectors; SignificanceMatrix starts with new dicts)."""

from __future__ import annotations

import pytest

from conftest import make_record
from moodtrends.config import KEY_TYPES, PipelineConfig, apply_overrides
from moodtrends.scoring import ScoredRecord, YearBucket
from moodtrends.stats import FLAG_NONE, KsResult, SignificanceMatrix


def test_key_types_in_field_order():
    # an optional key (int | None) takes the type of its value
    assert list(KEY_TYPES.items()) == [
        ("corpus_path", str), ("corpus_format", str), ("lexicon_path", str),
        ("year_min", int), ("year_max", int), ("english_threshold", float),
        ("alpha_significant", float), ("alpha_marginal", float),
        ("output_dir", str), ("emit_svg", bool), ("top_n", int)]


def test_apply_overrides_returns_new_config():
    cfg = PipelineConfig()
    new = apply_overrides(cfg, {"year_min": "2010", "emit_svg": "yes", "top_n": None})
    assert (new.year_min, new.emit_svg, new.top_n) == (2010, True, 20)
    assert cfg == PipelineConfig()
    assert (cfg.year_min, cfg.emit_svg) == (None, False)


@pytest.mark.parametrize("record,field", [
    (PipelineConfig(), "output_dir"),
    (make_record("hope"), "body"),
    (ScoredRecord("a", 2010, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 1), "match_count"),
    (KsResult(0.5, 0.25, 3, 4), "p_value"),
], ids=["PipelineConfig", "EmailRecord", "ScoredRecord", "KsResult"])
def test_record_field_assignment_refused(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_records_unpack_and_compare_by_value():
    rec_id, year, components, match_count = ScoredRecord("a", 2010, (0.0,) * 6, 0)
    assert (rec_id, year, components, match_count) == ("a", 2010, (0.0,) * 6, 0)
    assert make_record("hope") == make_record("hope") != make_record("hope", rec_id="r2")
    assert repr(KsResult(0.5, 0.25, 3, 4)) == "KsResult(d_statistic=0.5, p_value=0.25, n=3, m=4)"
    # they compare as tuples, so a plain tuple of the same values is equal
    assert KsResult(0.5, 0.25, 3, 4) == (0.5, 0.25, 3, 4)


def test_significance_matrices_share_no_dict():
    a, b = SignificanceMatrix(), SignificanceMatrix()
    a.cells[2010, 2011] = KsResult(0.0, 1.0, 1, 1)
    a.flags[2010, 2011] = FLAG_NONE
    assert (b.cells, b.flags) == ({}, {})
    assert a.pairs() == [(2010, 2011)] and b.pairs() == []


def test_year_bucket_converts_checks_and_compares_by_value():
    bucket = YearBucket([[1, 0, 0, 0, 0, 0]])
    assert bucket == YearBucket(((1.0, 0.0, 0.0, 0.0, 0.0, 0.0),))
    assert bucket.vectors == ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0),)
    assert YearBucket() == YearBucket((), 0) != YearBucket(zero_match_count=1)
    assert repr(YearBucket(bucket.vectors, 2)) == (
        "YearBucket(vectors=((1.0, 0.0, 0.0, 0.0, 0.0, 0.0),), zero_match_count=2)")
    with pytest.raises(ValueError, match="^every vector needs 6 components$"):
        YearBucket([[0.0] * 5])

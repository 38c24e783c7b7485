"""Contracts of the record and config types: immutable named tuples, a
config key table in field order, overrides that return a new config, and
bucket_scores filing a year's rows as given once their length is checked."""

from __future__ import annotations

import pytest

from conftest import make_record, vector_bucket
from moodtrends.config import KEY_TYPES, PipelineConfig, apply_overrides
from moodtrends.scoring import ScoredRecord, YearBucket, bucket_scores
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
    (vector_bucket([(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)], 2), "zero_match_count"),
    (SignificanceMatrix({}, {}), "flags"),
], ids=["PipelineConfig", "EmailRecord", "ScoredRecord", "KsResult", "YearBucket",
        "SignificanceMatrix"])
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
    assert YearBucket() == ((), 0) != YearBucket(zero_match_count=1)
    cells, flags = matrix = SignificanceMatrix({(2010, 2011): KsResult(0.0, 1.0, 1, 1)},
                                               {(2010, 2011): FLAG_NONE})
    assert matrix == (cells, flags) and matrix.pairs() == [(2010, 2011)]


def test_bucket_scores_files_given_rows_and_checks_vectors():
    rows = [ScoredRecord("a", 2010, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 1),
            ScoredRecord("b", 2010, (0.0,) * 6, 0)]
    bucket = bucket_scores(rows)[2010]
    assert bucket == YearBucket((rows[0],), 1)
    assert bucket.rows[0] is rows[0]
    with pytest.raises(ValueError, match="^every vector needs 6 components$"):
        bucket_scores([ScoredRecord("c", 2010, (0.0,) * 5, 1)])

"""moodtrends: six-dimensional mood scoring of future-dated message corpora
with Kolmogorov-Smirnov year-pair testing and quadratic trend fits."""

from .corpus import filter_english, parse_corpus_file
from .lexicon import (SCALES, MoodScale, compile_lexicon, load_default_lexicon,
                      load_lexicon_file)
from .scoring import ScoredRecord, YearBucket, bucket_scores, score_record
from .stats import build_trend, ks_two_sample, pairwise_ks
from .synth import generate_corpus, make_trend_spec
from .textproc import porter_stem, tokenize

__version__ = "0.1.0"

__all__ = [
    "filter_english", "parse_corpus_file",
    "SCALES", "MoodScale", "compile_lexicon", "load_default_lexicon",
    "load_lexicon_file",
    "ScoredRecord", "YearBucket", "bucket_scores", "score_record",
    "build_trend", "ks_two_sample", "pairwise_ks",
    "generate_corpus", "make_trend_spec",
    "porter_stem", "tokenize",
    "__version__",
]

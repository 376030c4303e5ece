"""Symbolic time-series words with trend-aware segmentation.

The pipeline turns a real-valued series into a short word over a small
alphabet: z-normalize, average over segments, map each mean to a symbol
via equiprobable breakpoints under the standard normal.  Beyond the
classic contiguous segmentation, three index-shuffling schemes (overlap,
intertwine, split) let segment means register local trend direction
while keeping the symbol-space distance a lower bound of the Euclidean
distance on the raw series.
"""

from trendsax.benchmark import (
    BenchmarkConfig,
    BenchmarkMatrix,
    BenchmarkRow,
    emit_report,
    read_report_csv,
    run_benchmark,
)
from trendsax.classify import (
    DEFAULT_ALPHABET_RANGE,
    EvaluationReport,
    TunedModel,
    evaluate,
    loocv_error,
    nn1,
    tune_alphabet,
)
from trendsax.core import (
    MAX_ALPHABET,
    AlphabetTable,
    PaaVector,
    SaxWord,
    gaussian_quantile,
    make_alphabet_table,
    paa,
    symbolize,
    znormalize,
)
from trendsax.dataset import DatasetPair, LabeledDataset, UcrFormatError, load_dataset_pair, load_ucr
from trendsax.distance import (
    LOWER_BOUND_TOLERANCE,
    LowerBoundReport,
    euclidean,
    mindist,
    verify_lower_bound,
)
from trendsax.segmentation import SCHEMES, Segmentation, segment

__version__ = "0.1.0"

__all__ = [
    "AlphabetTable",
    "BenchmarkConfig",
    "BenchmarkMatrix",
    "BenchmarkRow",
    "DEFAULT_ALPHABET_RANGE",
    "DatasetPair",
    "EvaluationReport",
    "LOWER_BOUND_TOLERANCE",
    "LabeledDataset",
    "LowerBoundReport",
    "MAX_ALPHABET",
    "PaaVector",
    "SCHEMES",
    "SaxWord",
    "Segmentation",
    "TunedModel",
    "UcrFormatError",
    "__version__",
    "emit_report",
    "euclidean",
    "evaluate",
    "gaussian_quantile",
    "load_dataset_pair",
    "load_ucr",
    "loocv_error",
    "make_alphabet_table",
    "mindist",
    "nn1",
    "paa",
    "read_report_csv",
    "run_benchmark",
    "segment",
    "symbolize",
    "tune_alphabet",
    "verify_lower_bound",
    "znormalize",
]

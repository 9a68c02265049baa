"""Confidence intervals for ranking metrics computed from predicted
relevance-label distributions.

Three estimators over a shared data model: a percentile bootstrap on labeled
queries only, a prediction-powered normal interval that debiases predictions
with a labeled correction, and a risk-controlled interval built by
optimistic/pessimistic perturbation of each document's label distribution.
"""

from .bootstrap import EmpiricalEstimate, bootstrap_ci, empirical_estimate
from .corpus import (
    build_dataset,
    infer_scale_from_dists,
    parse_dists,
    parse_qrels,
    parse_run,
    write_dists,
    write_qrels,
    write_run,
)
from .crc import (
    CalibrationBatches,
    CrcCalibration,
    build_batches,
    calibrate,
    calibration_threshold,
    crc_ci,
    mu_crc,
    perturb_distribution,
    required_batches,
    utility_crc,
)
from .errors import (
    CalibrationInfeasibleError,
    CalibrationMismatchError,
    EmptyQuerySetError,
    InsufficientDataError,
    MissingDistributionError,
    ParseError,
    RankciError,
    TooFewBatchesError,
    UnlabeledQueryError,
)
from .metrics import (
    MetricSpec,
    dataset_utility,
    expected_gain,
    format_metric,
    gain,
    parse_metric,
    predicted_utilities,
    query_utility_true,
    rank_weight,
    true_utilities,
)
from .model import (
    CiReport,
    Dataset,
    Judgment,
    LabelScale,
    RankedList,
    RelevanceDistribution,
    validate_dataset,
)
from .ppi import PpiEstimate, ppi_ci, ppi_estimate
from .synth import (
    SynthConfig,
    bias_dataset,
    generate,
    oracle_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationBatches",
    "CalibrationInfeasibleError",
    "CalibrationMismatchError",
    "CiReport",
    "CrcCalibration",
    "Dataset",
    "EmpiricalEstimate",
    "EmptyQuerySetError",
    "InsufficientDataError",
    "Judgment",
    "LabelScale",
    "MetricSpec",
    "MissingDistributionError",
    "ParseError",
    "PpiEstimate",
    "RankciError",
    "RankedList",
    "RelevanceDistribution",
    "SynthConfig",
    "TooFewBatchesError",
    "UnlabeledQueryError",
    "bias_dataset",
    "bootstrap_ci",
    "build_batches",
    "build_dataset",
    "calibrate",
    "calibration_threshold",
    "crc_ci",
    "dataset_utility",
    "empirical_estimate",
    "expected_gain",
    "format_metric",
    "gain",
    "generate",
    "infer_scale_from_dists",
    "mu_crc",
    "oracle_dataset",
    "parse_dists",
    "parse_metric",
    "parse_qrels",
    "parse_run",
    "perturb_distribution",
    "ppi_ci",
    "ppi_estimate",
    "predicted_utilities",
    "query_utility_true",
    "rank_weight",
    "required_batches",
    "true_utilities",
    "utility_crc",
    "validate_dataset",
    "write_dists",
    "write_qrels",
    "write_run",
]

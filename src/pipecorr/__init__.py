"""pipecorr: power-law record-value modelling of defect positions.

Successive corrosion locations along a pipeline are treated as upper
record values, equivalently as arrivals of a non-homogeneous Poisson
process with cumulative rate beta * t**alpha. The package fits that
model by maximum likelihood, predicts future record positions with
exact conditional distributions, checks fit by time rescaling, and
simulates the process for calibration studies.
"""

from .cli import AnalysisReport, ingest_csv
from .data import CORROSION_SURVEY_KM, demo_records
from .diagnostics import (
    GofReport,
    KS_ESTIMATED_PARAMS_CAVEAT,
    exponential_transform,
    gof_report,
    ks_exponential_test,
)
from .errors import DataValidationError, InsufficientDataError, NumericError
from .forecast import (
    BacktestRow,
    PredictionQuery,
    PredictionResult,
    backtest,
    conditional_density,
    predict,
    predict_mean,
    predict_quantile,
    prediction_interval,
)
from .inference import FittedModel, RecordSequence, fit_mle, sequential_fits
from .model import PowerLawRate, cumulative_intensity, intensity_at, log_likelihood
from .simulation import (
    EstimatorStudy,
    estimator_study,
    simulate_first_m,
    simulate_records_from_iid,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BacktestRow",
    "CORROSION_SURVEY_KM",
    "DataValidationError",
    "EstimatorStudy",
    "FittedModel",
    "GofReport",
    "InsufficientDataError",
    "KS_ESTIMATED_PARAMS_CAVEAT",
    "NumericError",
    "PowerLawRate",
    "PredictionQuery",
    "PredictionResult",
    "RecordSequence",
    "backtest",
    "conditional_density",
    "cumulative_intensity",
    "demo_records",
    "estimator_study",
    "exponential_transform",
    "fit_mle",
    "gof_report",
    "ingest_csv",
    "intensity_at",
    "ks_exponential_test",
    "log_likelihood",
    "predict",
    "predict_mean",
    "predict_quantile",
    "prediction_interval",
    "sequential_fits",
    "simulate_first_m",
    "simulate_records_from_iid",
    "__version__",
]

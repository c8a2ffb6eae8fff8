import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import pipecorr

# The root API: what the fit / predict / check / simulate workflows use.
ROOT_NAMES = {
    "AnalysisReport", "BacktestRow", "CORROSION_SURVEY_KM", "DataValidationError",
    "EstimatorStudy", "FittedModel", "GofReport", "InsufficientDataError",
    "KS_ESTIMATED_PARAMS_CAVEAT", "NumericError", "PowerLawRate", "PredictionQuery",
    "PredictionResult", "RecordSequence", "__version__", "backtest", "conditional_density",
    "cumulative_intensity", "demo_records", "estimator_study", "exponential_transform",
    "fit_mle", "gof_report", "ingest_csv", "intensity_at", "ks_exponential_test",
    "log_likelihood", "predict", "predict_mean", "predict_quantile", "prediction_interval",
    "sequential_fits", "simulate_first_m", "simulate_records_from_iid",
}

# Public in their modules only.
MODULE_NAMES = [
    ("numerics", "QuadratureResult"),
    ("numerics", "expectation_semi_infinite"),
    ("numerics", "fixed_order_expectation"),
]

# Functions whose spans the benchmark harness reads; its tracer wraps only
# functions listed in their module's __all__ and defined there.
TRACED = [
    "numerics.fixed_order_expectation",
    "numerics.expectation_semi_infinite",
    "forecast.predict_mean",
    "forecast.predict_quantile",
    "inference.fit_mle",
    "diagnostics.gof_report",
    "simulation.estimator_study",
    "cli.main",
    "cli.ingest_csv",
    "model.cumulative_intensity",
    "model.log_likelihood",
]


def test_root_names():
    assert len(pipecorr.__all__) == len(set(pipecorr.__all__)) == 34
    assert set(pipecorr.__all__) == ROOT_NAMES
    for name in ROOT_NAMES:
        assert hasattr(pipecorr, name), name


@pytest.mark.parametrize("module, name", MODULE_NAMES)
def test_module_level_names(module, name):
    mod = importlib.import_module("pipecorr." + module)
    assert name in mod.__all__
    assert getattr(mod, name).__module__ == mod.__name__
    assert not hasattr(pipecorr, name)


@pytest.mark.parametrize("span", TRACED)
def test_traced_functions_stay_public_in_their_module(span):
    module, name = span.split(".")
    mod = importlib.import_module("pipecorr." + module)
    assert name in mod.__all__
    fn = getattr(mod, name)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


def test_import_loads_no_heavy_scipy_subpackages():
    # these scipy subpackages serve only the tests; importing the
    # package must not pay for them
    heavy = ("scipy.optimize", "scipy.integrate", "scipy.stats")
    src = str(Path(pipecorr.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, %r); import pipecorr; "
        "print(*[m for m in %r if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code % (src, heavy)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == []

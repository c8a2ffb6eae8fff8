"""The survey workflows under the benchmark's span tracer.

``perfbench/tracing.py`` wraps functions by their module's ``__all__``,
reads ``QuadratureResult.evaluations`` and takes the rule order from
``args[2]`` of ``fixed_order_expectation``. This test runs each workflow
traced, so a change to ``src`` that breaks that contract fails here.
"""

import importlib.util
from pathlib import Path

import pipecorr

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

SPANS = (
    "inference.fit_mle",
    "forecast.predict_mean",
    "forecast.predict_quantile",
    "numerics.expectation_semi_infinite",
    "numerics.fixed_order_expectation",
    "diagnostics.gof_report",
    "model.log_likelihood",
    "simulation.estimator_study",
    "simulation.rng_setup",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workflows_meet_the_tracer_contract(survey):
    tracer = load_tracing().Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        # Called through the package, whose names the tracer rebinds.
        fitted = pipecorr.fit_mle(survey)
        pipecorr.predict(fitted)
        pipecorr.gof_report(survey, fitted)
        pipecorr.backtest(survey)
        pipecorr.sequential_fits(survey)
        pipecorr.estimator_study(pipecorr.PowerLawRate(1.2, 0.17), m=10, n_replicates=20, seed=1)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    spans, counters = tracer.summary()
    for name in SPANS:
        assert spans.get(name, {}).get("calls", 0) >= 1, name
    assert counters["numerics.quad_evaluations"] > 0
    assert counters["numerics.quad_final_order"] > 0

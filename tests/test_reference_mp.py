"""Forecasts against a 40-digit mpmath reference, over hypothesis draws.

The reference works straight from the formula T = r_m * (1 + w/a)**(1/alpha),
a = Lambda(r_m) = beta * r_m**alpha, and shares no code with pipecorr; only
the gamma quantile w comes from scipy's ``gammaincinv`` on both sides.
"""

import math
import sys

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special

from pipecorr import FittedModel, NumericError, PowerLawRate, PredictionQuery, predict_quantile

EPS = sys.float_info.epsilon


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def reference_quantile(alpha, beta, r_m, w):
    """T(w) for the float inputs, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        a = mpmath.mpf(beta) * mpmath.mpf(r_m) ** mpmath.mpf(alpha)
        return r_m * (1 + mpmath.mpf(w) / a) ** (1 / mpmath.mpf(alpha))


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(alpha=log_uniform(1e-2, 1e2), r_m=log_uniform(1e-6, 1e6), a=log_uniform(1e-3, 1e6),
       k=st.integers(1, 100), tail=log_uniform(1e-12, 0.5), upper=st.booleans())
def test_quantile_matches_reference(alpha, r_m, a, k, tail, upper):
    log_beta = math.log(a) - alpha * math.log(r_m)
    assume(-708.0 < log_beta < 709.0)  # beta must be a normal float
    beta = math.exp(log_beta)
    p = 1.0 - tail if upper else tail
    query = PredictionQuery(FittedModel(PowerLawRate(alpha, beta), m=1, r_m=r_m,
                                        log_likelihood=0.0), 1 + k)
    want = reference_quantile(alpha, beta, r_m, special.gammaincinv(k, p))
    if want > sys.float_info.max:
        with pytest.raises(NumericError, match="float range"):
            predict_quantile(query, p)
        return
    got = predict_quantile(query, p)
    assert got >= r_m
    assert abs(got - want) <= 4 * EPS * want + 1e-12 * (want - r_m)

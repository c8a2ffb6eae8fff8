"""Prediction of future record positions from a fitted model.

Given the first m records and a fitted rate, the position T_s of the
s-th record (s > m) has conditional density

    f(y) = delta(y)**(s-m-1) / Gamma(s-m) * lambda(y) * exp(-delta(y)),
    delta(y) = Lambda(y) - Lambda(r_m),  y > r_m,

so W = Lambda(T_s) - Lambda(r_m) is Gamma(s - m, 1). Every forecast goes
through one map, T(w) = r_m * (1 + w/a)**(1/alpha) with a = Lambda(r_m),
evaluated from (alpha, log a, r_m) so that it stays finite where a would
underflow or overflow.
"""

import operator
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InsufficientDataError, NumericError
from .inference import _prefix_fits
from .numerics import expectation_semi_infinite

__all__ = [
    "PredictionQuery",
    "PredictionResult",
    "BacktestRow",
    "conditional_density",
    "predict_mean",
    "predict_quantile",
    "prediction_interval",
    "predict",
    "density_curve",
    "backtest",
]


@dataclass(frozen=True)
class PredictionQuery:
    """Ask for the s-th record given a model fitted on the first m.

    ``fitted`` supplies both the rate and the conditioning point r_m;
    s must exceed fitted.m.
    """

    fitted: object
    s: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "s", operator.index(self.s))
        except TypeError:
            raise TypeError("target index s must be an integer, got %r" % (self.s,)) from None
        if self.s <= self.fitted.m:
            raise ValueError(
                "target index s must exceed the number of fitted records "
                "(s=%d, m=%d)" % (self.s, self.fitted.m)
            )

    @property
    def steps_ahead(self):
        return self.s - self.fitted.m

    @property
    def r_m(self):
        return self.fitted.r_m


@dataclass(frozen=True)
class PredictionResult:
    """Point and interval summary for one future record index."""

    s: int
    m: int
    mean: float
    median: float
    interval_low: float
    interval_high: float
    level: float


def _anchor(alpha, beta, r_m):
    """log a = log Lambda(r_m) = log beta + alpha * log r_m, finite for any valid rate."""
    return np.log(beta) + alpha * np.log(r_m)


def _forecast(alpha, log_a, r_m, w):
    """The map T(w) = r_m * exp(log(1 + w/a) / alpha): the position at Lambda(r_m) + w.

    T(0) = r_m and T(w) >= r_m. Arguments broadcast; a T past the float
    range is inf, without a warning.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return r_m * np.exp(np.logaddexp(0.0, np.log(w) - log_a) / alpha)


def conditional_density(query, y):
    """Conditional density of T_s at y, given the first m records.

    Vectorized in y; 0 for y <= r_m. In log space through x = alpha * log(y / r_m),
    as log delta = log(Lambda(y) - Lambda(r_m)) = log a + x + log(1 - exp(-x))
    has no cancellation near r_m; 0 where delta overflows.
    """
    alpha, r_m, k = query.fitted.rate.alpha, query.r_m, float(query.steps_ahead)
    log_a = _anchor(alpha, query.fitted.rate.beta, r_m)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(~np.isfinite(y_arr)):
        raise ValueError("evaluation points must be finite")
    with np.errstate(all="ignore"):
        x = alpha * np.log1p((y_arr - r_m) / r_m)  # y - r_m is exact near r_m
        log_delta = log_a + x + np.log(-np.expm1(-x))
        log_f = ((k - 1.0) * log_delta - special.gammaln(k) + np.log(alpha) + log_a + x
                 - np.log(y_arr) - np.exp(log_delta))
        out = np.where(x > 0.0, np.exp(log_f), 0.0)
    return float(out[0]) if np.ndim(y) == 0 else out


def predict_mean(query):
    """Conditional mean of T_s: E[T(W)], W ~ Gamma(s - m, 1), by gamma-weighted quadrature.

    Raises NumericError, with both final estimates, if the quadrature
    ladder fails to converge.
    """
    rate, r_m = query.fitted.rate, query.r_m
    alpha, log_a = rate.alpha, _anchor(rate.alpha, rate.beta, r_m)
    return expectation_semi_infinite(lambda w: _forecast(alpha, log_a, r_m, w),
                                     float(query.steps_ahead)).value


def predict_quantile(query, p):
    """p-th quantile of T_s in closed form, T(G^{-1}(p)) with G the Gamma(s - m, 1) CDF.

    Raises NumericError if the quantile lies past the float range.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must be in (0, 1), got %r" % (p,))
    rate, w = query.fitted.rate, special.gammaincinv(float(query.steps_ahead), p)
    q = float(_forecast(rate.alpha, _anchor(rate.alpha, rate.beta, query.r_m), query.r_m, w))
    if q == np.inf:
        raise NumericError("quantile %r of record %d is past the float range" % (p, query.s))
    return q


def _equal_tails(level):
    """Tails (tail, 1 - tail) of an equal-tail interval; the one check of a level."""
    tail = (1.0 - level) / 2.0
    if not (0.0 < level < 1.0 and 1.0 - tail < 1.0):
        raise ValueError("coverage level must be in (0, 1) and leave an upper tail "
                         "below 1 in floating point, got %r" % (level,))
    return tail, 1.0 - tail


def prediction_interval(query, level=0.95):
    """Equal-tail interval for T_s at the given coverage level."""
    low, high = _equal_tails(level)
    return predict_quantile(query, low), predict_quantile(query, high)


def predict(fitted, s=None, level=0.95):
    """Full point-and-interval summary for the s-th record.

    s defaults to m + 1, the next unseen record.
    """
    query = PredictionQuery(fitted=fitted, s=fitted.m + 1 if s is None else s)
    low, high = prediction_interval(query, level=level)
    return PredictionResult(
        s=query.s,
        m=fitted.m,
        mean=predict_mean(query),
        median=predict_quantile(query, 0.5),
        interval_low=low,
        interval_high=high,
        level=float(level),
    )


def density_curve(query, y_min, y_max, n_points=200):
    """Tabulate the conditional density on a uniform grid.

    Returns an (n_points, 2) array of (y, density) pairs, ready for
    plotting. y_min may equal r_m (the density there is 0).
    """
    if not query.r_m <= y_min < y_max:
        raise ValueError(
            "need r_m <= y_min < y_max, got r_m=%g, y_min=%g, y_max=%g"
            % (query.r_m, y_min, y_max)
        )
    if n_points < 2:
        raise ValueError("n_points must be at least 2, got %d" % n_points)
    grid = np.linspace(y_min, y_max, int(n_points))
    return np.column_stack([grid, conditional_density(query, grid)])


@dataclass(frozen=True)
class BacktestRow:
    """One step of the expanding-window backtest."""

    k: int
    alpha: float
    beta: float
    predicted_next: float
    observed_next: float

    @property
    def error(self):
        return self.predicted_next - self.observed_next


def backtest(records):
    """One-step-ahead expanding-window evaluation on observed records.

    For k = 2 .. m-1, fit the first k records, predict the mean position
    of record k+1 and pair it with the observation. Row k therefore uses
    only data available before record k+1; all m records are never
    fitted together.
    """
    m = len(records)
    if m < 3:
        raise InsufficientDataError("backtest needs at least 3 records, got %d" % m)
    return [
        BacktestRow(
            k=fitted.m,
            alpha=fitted.rate.alpha,
            beta=fitted.rate.beta,
            predicted_next=predict_mean(PredictionQuery(fitted=fitted, s=fitted.m + 1)),
            observed_next=records.positions[fitted.m],
        )
        for fitted in _prefix_fits(records.as_array()[:-1])
    ]

"""Prediction of future record positions from a fitted model.

Given the first m records and a fitted rate, the position T_s of the
s-th record (s > m) has conditional density

    f(y) = delta(y)**(s-m-1) / Gamma(s-m) * lambda(y) * exp(-delta(y)),
    delta(y) = Lambda(y) - Lambda(r_m),  y > r_m,

so W = Lambda(T_s) - Lambda(r_m) is Gamma(s - m, 1). All moments and
quantiles reduce to one-dimensional gamma expectations, which keeps the
numerics exact-in-distribution rather than grid-based.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InsufficientDataError
from .inference import fit_mle
from .model import cumulative_intensity, intensity_at, inverse_cumulative_intensity
from .numerics import expectation_semi_infinite, gamma_quantile

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


def conditional_density(query, y):
    """Conditional density of T_s at y, given the first m records.

    Vectorized in y; returns 0 for y <= r_m (the support is open on the
    left at the last fitted record). Evaluated in log space so that
    distant tails underflow to 0 instead of overflowing.
    """
    rate = query.fitted.rate
    k = query.steps_ahead
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(~np.isfinite(y_arr)):
        raise ValueError("evaluation points must be finite")
    out = np.zeros_like(y_arr)
    sup = y_arr > query.r_m
    if np.any(sup):
        ys = y_arr[sup]
        with np.errstate(all="ignore"):
            delta = cumulative_intensity(rate, ys) - cumulative_intensity(rate, query.r_m)
            log_lam = np.log(intensity_at(rate, ys))
            if k == 1:
                log_f = log_lam - delta
            else:
                log_f = (k - 1) * np.log(delta) - special.gammaln(float(k)) + log_lam - delta
                log_f = np.where(delta > 0, log_f, -np.inf)
        # Where Lambda(y) overflows, exp(-delta) and so the density are 0.
        out[sup] = np.exp(np.where(delta < np.inf, log_f, -np.inf))
    return float(out[0]) if np.ndim(y) == 0 else out


def predict_mean(query):
    """Conditional mean of T_s.

    Substituting w = Lambda(y) - Lambda(r_m) turns the mean into
    E[(r_m**alpha + W/beta)**(1/alpha)] with W ~ Gamma(s - m, 1),
    evaluated by gamma-weighted quadrature.

    Raises
    ------
    NumericError
        If the quadrature ladder fails to converge (propagated from the
        numerics module with both final estimates attached).
    """
    rate = query.fitted.rate
    base = np.exp(rate.alpha * np.log(query.r_m))

    def integrand(w):
        return np.exp(np.log(base + w / rate.beta) / rate.alpha)

    result = expectation_semi_infinite(integrand, float(query.steps_ahead))
    return result.value


def predict_quantile(query, p):
    """p-th quantile of T_s in closed form.

    The gamma reduction gives Q(p) = Lambda^{-1}(Lambda(r_m) + G^{-1}(p))
    where G is the Gamma(s - m, 1) CDF; no iteration is involved.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must be in (0, 1), got %r" % (p,))
    rate = query.fitted.rate
    w = cumulative_intensity(rate, query.r_m) + gamma_quantile(float(query.steps_ahead), p)
    return inverse_cumulative_intensity(rate, w)


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
    if s is None:
        s = fitted.m + 1
    query = PredictionQuery(fitted=fitted, s=int(s))
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
    only data available before record k+1.
    """
    m = len(records)
    if m < 3:
        raise InsufficientDataError("backtest needs at least 3 records, got %d" % m)
    rows = []
    for k in range(2, m):
        fitted = fit_mle(records.prefix(k))
        query = PredictionQuery(fitted=fitted, s=k + 1)
        rows.append(
            BacktestRow(
                k=k,
                alpha=fitted.rate.alpha,
                beta=fitted.rate.beta,
                predicted_next=predict_mean(query),
                observed_next=records.positions[k],
            )
        )
    return rows

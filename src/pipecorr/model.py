"""Power-law event-rate model.

The cumulative rate is Lambda(t) = beta * t**alpha and the local rate
is its derivative lambda(t) = alpha * beta * t**(alpha - 1). Successive
defect positions along a line are modelled as the arrival times of a
non-homogeneous Poisson process with this rate, which is equivalent to
treating them as upper record values of an i.i.d. sequence whose hazard
integrates to Lambda.

Note on units: beta is not a plain rate. Its dimension is
events / (length ** alpha), so fitted beta values are comparable only
between models sharing the same alpha.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerLawRate",
    "intensity_at",
    "cumulative_intensity",
    "inverse_cumulative_intensity",
    "log_likelihood",
]


@dataclass(frozen=True)
class PowerLawRate:
    """Parameter pair (alpha, beta), both strictly positive.

    alpha > 1 means defects arrive increasingly often with distance
    (deterioration), alpha < 1 the reverse, alpha = 1 a plain Poisson
    process of rate beta.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be a positive finite number, got %r" % (self.alpha,))
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be a positive finite number, got %r" % (self.beta,))


def _cumulative(alpha, beta, t):
    """Lambda(t) by beta * exp(alpha * log t), for float or array t >= 0.

    The one place the float steps of Lambda (and of the power law lambda)
    live; alpha and beta may be arrays that broadcast against t. t == 0
    gives exp(-inf) = 0 exactly for alpha > 0.
    """
    with np.errstate(divide="ignore"):
        return beta * np.exp(alpha * np.log(t))


def _inverse(alpha, beta, w, out=None):
    """Lambda^{-1}(w) by exp((1 / alpha) * log(w / beta)), for array w >= 0.

    The one place the float steps of Lambda^{-1} live; alpha and beta may
    be arrays that broadcast against w. With ``out`` (which may be w) the
    steps run in place. w == 0 gives 0 exactly.
    """
    with np.errstate(divide="ignore"):
        out = np.divide(w, beta, out=out)
        np.log(out, out=out)
        out *= 1.0 / alpha
        return np.exp(out, out=out)


def _positions(t, name="t"):
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("%s must be finite and nonnegative" % name)
    return arr


def _unwrap(out, t):
    return float(out[0]) if np.ndim(t) == 0 else out


def intensity_at(rate, t):
    """Local event rate lambda(t) = alpha * beta * t**(alpha - 1).

    Parameters
    ----------
    rate : PowerLawRate
    t : float or array_like
        Nonnegative position(s). t = 0 is rejected when alpha < 1
        because the rate diverges there.
    """
    t_arr = _positions(t)
    if rate.alpha < 1 and np.any(t_arr == 0):
        raise ValueError("intensity diverges at t = 0 for alpha < 1")
    if rate.alpha == 1:  # constant, also at t = 0 where t**0 is 1
        return _unwrap(np.full_like(t_arr, rate.beta), t)
    # lambda is itself a power law: (alpha * beta) * t**(alpha - 1).
    return _unwrap(_cumulative(rate.alpha - 1.0, rate.alpha * rate.beta, t_arr), t)


def cumulative_intensity(rate, t):
    """Expected event count on [0, t], Lambda(t) = beta * t**alpha."""
    out = _cumulative(rate.alpha, rate.beta, _positions(t))
    return _unwrap(out, t)


def inverse_cumulative_intensity(rate, w):
    """Position at which the expected count reaches w.

    Solves Lambda(t) = w in closed form, t = (w / beta)**(1 / alpha).
    Inverse of ``cumulative_intensity`` on w >= 0.
    """
    out = _inverse(rate.alpha, rate.beta, _positions(w, name="w"))
    return _unwrap(out, w)


def log_likelihood(rate, records):
    """Exact log-likelihood of an ordered record prefix.

    For records r_1 < ... < r_m the joint density gives

        m * log(alpha * beta) + (alpha - 1) * sum(log r_i) - Lambda(r_m).

    Parameters
    ----------
    rate : PowerLawRate
    records : RecordSequence or array_like
        The observed positions; every value must be positive.
    """
    pos = np.asarray(getattr(records, "positions", records), dtype=float)
    if pos.size == 0:
        raise ValueError("log_likelihood needs at least one record")
    if np.any(pos <= 0):
        raise ValueError("record positions must be strictly positive")
    r_m = float(np.max(pos))
    return float(
        pos.size * np.log(rate.alpha * rate.beta)
        + (rate.alpha - 1.0) * np.sum(np.log(pos))
        - _cumulative(rate.alpha, rate.beta, r_m)
    )

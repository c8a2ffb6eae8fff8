"""Goodness-of-fit via time rescaling.

If the fitted cumulative rate is correct, the increments
u_i = Lambda_hat(t_i) - Lambda_hat(t_{i-1}) (with t_0 = 0) are i.i.d.
unit exponentials. The report tests that with a Kolmogorov-Smirnov
statistic against Exp(1), using the Stephens finite-sample rescaling of
the statistic before applying the asymptotic Kolmogorov distribution.

The p-value is calibrated for a fully specified null. Here the rate is
estimated from the same data, which makes the test conservative-looking
in D but anti-conservative in its stated level; treat the p-value as a
screening summary, not an exact significance.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DataValidationError, InsufficientDataError
from .model import _cumulative

__all__ = [
    "GofReport",
    "KS_ESTIMATED_PARAMS_CAVEAT",
    "exponential_transform",
    "ks_exponential_test",
    "gof_report",
]

KS_ESTIMATED_PARAMS_CAVEAT = (
    "KS p-value assumes a fully specified null; parameters were estimated "
    "from the same data, so the true level is anti-conservative"
)


@dataclass(frozen=True)
class GofReport:
    """Time-rescaling KS summary for one fitted record sequence."""

    transform_values: tuple
    ks_statistic: float
    p_value: float
    n: int
    method: str = "increments"


def exponential_transform(records, fitted, method="increments"):
    """Map observed records to (approximately) unit exponentials.

    Parameters
    ----------
    records : RecordSequence
    fitted : FittedModel
        Must be the fit of exactly these records; mismatched inputs are
        rejected rather than silently producing a meaningless transform.
    method : str
        "increments" (default): u_i = Lambda_hat(t_i) - Lambda_hat(t_{i-1}).
        "log-ratio": u_i = (i - 1) * alpha_hat * log(t_i / t_{i-1}) for
        i = 2 .. m, an alternative reduction for sensitivity checks that
        discards the first record. Under the model alpha * log(t_i / t_{i-1})
        = log(S_i / S_{i-1}) ~ Exp(i - 1), as S_{i-1} / S_i ~ Beta(i - 1, 1)
        independently over i; the weight i - 1 makes each a unit
        exponential. For the MLE these sum to m exactly.
    """
    pos = records.as_array()
    if fitted.m != pos.size or not abs(fitted.r_m - pos[-1]) <= 1e-12 * abs(pos[-1]):
        raise DataValidationError(
            "fitted model does not match the record sequence "
            "(fit has m=%d, r_m=%g; data have m=%d, r_m=%g)"
            % (fitted.m, fitted.r_m, pos.size, pos[-1]),
            code="fit-data-mismatch",
        )
    if method == "increments":
        rate = fitted.rate
        return np.diff(_cumulative(rate.alpha, rate.beta, np.concatenate([[0.0], pos])))
    if method == "log-ratio":
        return np.arange(1, pos.size) * fitted.rate.alpha * np.diff(np.log(pos))
    raise ValueError("unknown transform method %r" % (method,))


def ks_exponential_test(u):
    """KS test of a positive sample against the unit exponential.

    Returns
    -------
    (statistic, p_value) : tuple of float
        The raw two-sided statistic D_n and the p-value obtained by the
        Stephens small-sample rescaling
        x = (sqrt(n) + 0.12 + 0.11 / sqrt(n)) * D_n
        fed through the asymptotic Kolmogorov survival function
        ``scipy.special.kolmogorov``.

    Raises InsufficientDataError below 3 values, DataValidationError on a value
    <= 0 or not finite.
    """
    u = np.asarray(u, dtype=float)
    if u.size < 3:
        raise InsufficientDataError("KS test needs at least 3 values, got %d" % u.size)
    if not np.all((u > 0) & (u < np.inf)):
        raise DataValidationError("exponential sample must be strictly positive and finite",
                                  code="nonpositive")
    # D = max(D+, D-) over the sorted sample, with D+ = max_i (i/n - F(u_(i)))
    # and D- = max_i (F(u_(i)) - (i-1)/n).
    n = u.size
    cdf = -np.expm1(-np.sort(u))
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    x = (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)) * d
    return d, float(special.kolmogorov(x))


def gof_report(records, fitted, method="increments"):
    """Run the full time-rescaling diagnostic and package the result."""
    u = exponential_transform(records, fitted, method=method)
    d, p = ks_exponential_test(u)
    return GofReport(
        transform_values=tuple(float(v) for v in u),
        ks_statistic=d,
        p_value=p,
        n=int(u.size),
        method=method,
    )

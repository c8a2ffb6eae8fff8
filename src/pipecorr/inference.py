"""Maximum-likelihood fitting of the power-law rate from record data."""

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, InsufficientDataError, NumericError
from .model import PowerLawRate, log_likelihood

__all__ = ["RecordSequence", "FittedModel", "fit_mle", "sequential_fits"]


@dataclass(frozen=True)
class RecordSequence:
    """A strictly increasing sequence of positive defect positions.

    Positions are stored as a plain tuple of floats. Validation happens
    at construction, and only here, so downstream code can assume a clean
    sequence. The error code and ``row`` name the first violation; the
    message lists every offending index.
    """

    positions: tuple
    label: str = ""

    def __post_init__(self):
        pos = tuple(float(x) for x in self.positions)
        object.__setattr__(self, "positions", pos)
        if len(pos) == 0:
            raise DataValidationError("record sequence is empty", code="empty")
        arr = np.array(pos)
        bad = np.flatnonzero(~np.isfinite(arr) | (arr <= 0))
        if bad.size:
            raise DataValidationError(
                "positions must be positive and finite; offending indices %s" % bad.tolist(),
                code="nonpositive",
                row=int(bad[0]) + 1,
            )
        step = np.diff(arr)
        bad = np.flatnonzero(step <= 0) + 1
        if bad.size:
            raise DataValidationError(
                "positions must be strictly increasing; "
                "violations at indices %s (0-based, comparing with the previous entry)"
                % bad.tolist(),
                code="duplicate" if step[bad[0] - 1] == 0 else "non-increasing",
                row=int(bad[0]) + 1,
            )

    def __len__(self):
        return len(self.positions)

    def as_array(self):
        return np.asarray(self.positions, dtype=float)

    def prefix(self, m):
        """First m records as a new sequence."""
        if not 1 <= m <= len(self.positions):
            raise ValueError("prefix length must be in [1, %d], got %d" % (len(self.positions), m))
        return RecordSequence(self.positions[:m], label=self.label)


@dataclass(frozen=True)
class FittedModel:
    """MLE fit of a record prefix: the rate plus fit bookkeeping."""

    rate: PowerLawRate
    m: int
    r_m: float
    log_likelihood: float

    @property
    def alpha(self):
        return self.rate.alpha

    @property
    def beta(self):
        return self.rate.beta


def _mle_rows(pos):
    """(alpha_hat, beta_hat) of each row of pos, records along the last axis.

    The arithmetic of ``fit_mle``: the log ratios are summed over the last
    axis of a fresh C-contiguous array, so a row of a 2-D call gives the
    same bits as a 1-D call on that row. Float warnings are silenced; a
    row that is not strictly increasing gives meaningless values, and
    callers check that beta stayed in the float range.
    """
    m = pos.shape[-1]
    with np.errstate(all="ignore"):
        log_ratio = pos[..., -1:] / pos[..., :-1]
        np.log(log_ratio, out=log_ratio)
        alpha = m / np.sum(log_ratio, axis=-1)
        beta = m / np.exp(alpha * np.log(pos[..., -1]))
    return alpha, beta


def _fit_error(alpha, beta, r_m, where=""):
    """NumericError for a fitted beta = m / r_m**alpha_hat outside the float range."""
    return NumericError(
        "%sfitted beta %r left the float range at alpha_hat %r, r_m %r; the records are "
        "nearly tied (large alpha_hat) or the positions are far from 1"
        % (where, float(beta), float(alpha), float(r_m))
    )


def _fit(pos):
    """FittedModel of an already-validated float array of at least two records.

    Slices of one array give the same bits as fits of separate copies.
    """
    alpha, beta = _mle_rows(pos)
    if not 0.0 < beta < np.inf:
        raise _fit_error(alpha, beta, pos[-1])
    rate = PowerLawRate(float(alpha), float(beta))
    return FittedModel(
        rate=rate,
        m=pos.size,
        r_m=float(pos[-1]),
        log_likelihood=log_likelihood(rate, pos),
    )


def _prefix_fits(pos):
    """Fits of every prefix pos[:k], k = 2 .. len(pos): views of one array, never re-validated."""
    return [_fit(pos[:k]) for k in range(2, pos.size + 1)]


def fit_mle(records):
    """Closed-form maximum-likelihood fit.

    alpha_hat = m / sum_{i<m} log(r_m / r_i), beta_hat = m / r_m**alpha_hat.
    The denominator form avoids the cancellation in
    m*log(r_m) - sum(log r_i) when the positions span several decades.
    beta_hat makes the fitted cumulative rate hit m exactly at r_m.

    Parameters
    ----------
    records : RecordSequence

    Returns
    -------
    FittedModel

    Raises
    ------
    InsufficientDataError
        With fewer than two records the likelihood has no interior
        maximum.
    NumericError
        If beta_hat = m / r_m**alpha_hat leaves the float range. It does
        when the records are so close to tied that alpha_hat is in the
        hundreds, or when the positions are far from 1 (r_m near 1e300 or
        1e-300), even at a moderate alpha_hat. The message states
        alpha_hat and r_m.
    """
    if len(records) < 2:
        raise InsufficientDataError("fit needs at least 2 records, got %d" % len(records))
    return _fit(records.as_array())


def sequential_fits(records):
    """Fits of every prefix r_1..r_k for k = 2 .. m, in order.

    Useful for watching parameter stabilization as the survey extends;
    fits are independent, nothing is warm-started. Each equals
    ``fit_mle`` of that prefix bit for bit.
    """
    m = len(records)
    if m < 2:
        raise InsufficientDataError("sequential fits need at least 2 records, got %d" % m)
    return _prefix_fits(records.as_array())

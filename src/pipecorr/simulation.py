"""Exact simulation of record positions and Monte-Carlo estimator studies.

Both generators use the same inversion: if E_1, E_2, ... are unit
exponentials and S_k their partial sums, then T_k = Lambda^{-1}(S_k)
are the first arrival positions of the process with cumulative rate
Lambda. For the record-value reading the identical map applies because
-log(survival) of the underlying i.i.d. distribution is Lambda, so the
k-th upper record sits at Lambda^{-1}(S_k) in distribution.

Reproducibility uses explicit stream splitting on top of numpy's
SeedSequence: stream (seed, 0) drives process paths, (seed, 1) drives
record paths, and estimator-study replicate k draws from (seed, 2, k).
Equal seeds therefore give independent draws across the two public
generators, and study replicates are reproducible in any execution
order.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import NumericError
from .forecast import _anchor, _equal_tails, _forecast
from .inference import RecordSequence, _mle_rows
from .model import _inverse

__all__ = [
    "EstimatorStudy",
    "simulate_first_m",
    "simulate_records_from_iid",
    "estimator_study",
]

_STREAM_PROCESS = 0
_STREAM_RECORDS = 1
_STREAM_STUDY = 2


def _positions_from_uniforms(rate, u):
    """Turn uniforms u into positions in place, one path per row.

    The inversion of the module docstring along the last axis: unit
    exponentials -log1p(-U) (full precision for tiny U, unlike
    -log(1 - U)), their partial sums S, then Lambda^{-1}(S) through
    ``model._inverse``. Returns u, the mask of positions that are not
    finite positive floats (Lambda^{-1} overflowed or underflowed) and the
    mask of positions 2, 3, ... tied with (not above) their predecessor.
    """
    with np.errstate(over="ignore"):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        np.cumsum(u, axis=-1, out=u)
        _inverse(rate.alpha, rate.beta, u, out=u)
    return u, ~(np.isfinite(u) & (u > 0)), u[..., 1:] <= u[..., :-1]


def _sample_error(rate, where, pos, bad, tied):
    """NumericError for the first failure of one path: range, then tie."""
    if bad.any():
        i = int(np.argmax(bad))
        return NumericError(
            "%ssimulated position %d is %r, outside the positive float range at alpha=%r, beta=%r"
            % (where, i + 1, float(pos[i]), rate.alpha, rate.beta)
        )
    i = int(np.argmax(tied)) + 1
    return NumericError(
        "%ssimulated positions %d and %d tie in floating point at alpha=%r; "
        "the fit needs strictly increasing records" % (where, i, i + 1, rate.alpha)
    )


def _simulate(rate, m, seed, stream, generator):
    if m < 1:
        raise ValueError("m must be at least 1, got %d" % m)
    pos, bad, tied = _positions_from_uniforms(rate, np.random.default_rng([seed, stream]).random(m))
    if bad.any() or tied.any():
        raise _sample_error(rate, "", pos, bad, tied)
    return RecordSequence(pos, label="%s seed %d" % (generator, seed))


def simulate_first_m(rate, m, seed):
    """Simulate the first m event positions of the power-law process.

    Exact (inversion of the cumulative rate, no thinning or
    discretization) and deterministic given (rate, m, seed). Returns a
    RecordSequence labelled with generator and seed; raises NumericError
    if a position leaves the positive float range or ties in floating point.
    """
    return _simulate(rate, m, seed, _STREAM_PROCESS, "simulate_first_m")


def simulate_records_from_iid(rate, m, seed):
    """Simulate the first m upper records of an i.i.d. sequence.

    The i.i.d. distribution is the one whose integrated hazard is the
    cumulative rate of ``rate`` (survival exp(-beta t**alpha)). By the
    record/process equivalence the output law equals that of
    ``simulate_first_m``, which it matches in what it returns and raises;
    the draw stream is split differently so the two generators are
    independent at equal seed.
    """
    return _simulate(rate, m, seed, _STREAM_RECORDS, "simulate_records_from_iid")


@dataclass(frozen=True)
class EstimatorStudy:
    """Monte-Carlo summary of the MLE and the plug-in predictor.

    ``coverage`` is the fraction of replicates whose simulated (m+1)-th
    position fell inside the equal-tail plug-in interval built from the
    first m. ``alpha_stderr`` is the Monte-Carlo standard error of
    ``alpha_mean``; report it alongside the mean because the MLE of
    alpha is biased upward by roughly m / (m - 2) at small m.
    ``beta_std`` is inf when the fitted betas are too large to square.
    """

    m: int
    n_replicates: int
    seed: int
    level: float
    alpha_mean: float
    alpha_median: float
    alpha_std: float
    alpha_stderr: float
    beta_mean: float
    beta_median: float
    beta_std: float
    coverage: float


def estimator_study(rate, m, n_replicates, seed, level=0.95):
    """Fit-and-predict Monte-Carlo study at a known true rate.

    Each replicate simulates m + 1 positions, fits the first m, records
    (alpha_hat, beta_hat) and whether the held-out (m+1)-th position
    landed in the plug-in prediction interval.

    Replicate k uses the dedicated stream (seed, 2, k), so results are
    independent of execution order and of the other generators. All
    replicates run as one array pass over an (n_replicates, m + 1)
    array of draws, through the private helpers that ``fit_mle`` and
    ``prediction_interval`` also call, so the result equals a
    replicate-by-replicate loop bit for bit. Memory is
    O(n_replicates * (m + 1)).

    Raises
    ------
    ValueError
        If m < 2, n_replicates < 2, or level is outside (0, 1) or so
        close to 1 that its upper tail rounds to 1.
    NumericError
        If one of a replicate's m + 1 simulated positions leaves the
        positive float range, if its first m positions tie in floating
        point, or if its fitted beta leaves the float range. The message
        names the first offending replicate and its first failure in
        that order of checks.
    """
    if m < 2:
        raise ValueError("study needs m >= 2 to fit, got %d" % m)
    if n_replicates < 2:
        raise ValueError("n_replicates must be at least 2, got %d" % n_replicates)
    tails = _equal_tails(level)
    pos = np.empty((n_replicates, m + 1))
    for k, row in enumerate(pos):
        np.random.default_rng([seed, _STREAM_STUDY, k]).random(m + 1, out=row)
    pos, bad, tied = _positions_from_uniforms(rate, pos)
    # Only the first m positions are fitted, so only they must not tie.
    tied = tied[:, :m - 1]
    alphas, betas = _mle_rows(pos[:, :m])
    sampled = bad.any(axis=-1) | tied.any(axis=-1)
    failed = sampled | ~((0.0 < betas) & (betas < np.inf))
    if failed.any():
        k = int(np.argmax(failed))
        where = "replicate %d: " % k
        if sampled[k]:
            raise _sample_error(rate, where, pos[k], bad[k], tied[k])
        raise NumericError("%sfitted beta %r left the float range; records nearly tied"
                           % (where, float(betas[k])))
    # Interval ends T(G^{-1}(p)) per replicate, through the forecast map.
    r_m = pos[:, m - 1]
    low, high = _forecast(alphas, _anchor(alphas, betas, r_m), r_m,
                          special.gammaincinv(1.0, np.array(tails)[:, None]))
    held_out = pos[:, m]
    hits = np.count_nonzero((low <= held_out) & (held_out <= high))
    # Betas near the float limit overflow in np.std's squares; beta_std is then inf.
    with np.errstate(over="ignore"):
        return EstimatorStudy(
            m=int(m),
            n_replicates=int(n_replicates),
            seed=int(seed),
            level=float(level),
            alpha_mean=float(np.mean(alphas)),
            alpha_median=float(np.median(alphas)),
            alpha_std=float(np.std(alphas, ddof=1)),
            alpha_stderr=float(np.std(alphas, ddof=1) / np.sqrt(n_replicates)),
            beta_mean=float(np.mean(betas)),
            beta_median=float(np.median(betas)),
            beta_std=float(np.std(betas, ddof=1)),
            coverage=hits / n_replicates,
        )

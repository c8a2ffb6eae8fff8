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

from .inference import RecordSequence, fit_mle
from .forecast import PredictionQuery, predict_quantile
from .model import inverse_cumulative_intensity

__all__ = [
    "SimulatedPath",
    "EstimatorStudy",
    "simulate_first_m",
    "simulate_records_from_iid",
    "count_at",
    "estimator_study",
]

_STREAM_PROCESS = 0
_STREAM_RECORDS = 1
_STREAM_STUDY = 2


@dataclass(frozen=True)
class SimulatedPath:
    """First m event positions from one simulated path."""

    positions: tuple
    rate_used: object
    seed: int

    def __len__(self):
        return len(self.positions)

    def as_array(self):
        return np.asarray(self.positions, dtype=float)

    def as_records(self):
        """View the path as a RecordSequence ready for fitting."""
        return RecordSequence(self.positions)


def _unit_exponentials(rng, n):
    # -log1p(-U) keeps full precision for tiny U, unlike -log(1 - U).
    return -np.log1p(-rng.random(n))


def _path_positions(rate, m, rng):
    s = np.cumsum(_unit_exponentials(rng, m))
    return inverse_cumulative_intensity(rate, s)


def _simulate(rate, m, seed, stream):
    if m < 1:
        raise ValueError("m must be at least 1, got %d" % m)
    pos = _path_positions(rate, m, np.random.default_rng([seed, stream]))
    return SimulatedPath(positions=tuple(float(x) for x in pos), rate_used=rate, seed=int(seed))


def simulate_first_m(rate, m, seed):
    """Simulate the first m event positions of the power-law process.

    Exact (inversion of the cumulative rate, no thinning or
    discretization) and deterministic given (rate, m, seed).
    """
    return _simulate(rate, m, seed, _STREAM_PROCESS)


def simulate_records_from_iid(rate, m, seed):
    """Simulate the first m upper records of an i.i.d. sequence.

    The i.i.d. distribution is the one whose integrated hazard is the
    cumulative rate of ``rate`` (survival exp(-beta t**alpha)). By the
    record/process equivalence the output law equals that of
    ``simulate_first_m``; the draw stream is split differently so the
    two generators are independent at equal seed.
    """
    return _simulate(rate, m, seed, _STREAM_RECORDS)


def count_at(path, t):
    """Number of simulated events at or before position t."""
    if not np.isfinite(t) or t < 0:
        raise ValueError("t must be finite and nonnegative, got %r" % (t,))
    return int(np.searchsorted(path.as_array(), t, side="right"))


@dataclass(frozen=True)
class EstimatorStudy:
    """Monte-Carlo summary of the MLE and the plug-in predictor.

    ``coverage`` is the fraction of replicates whose simulated (m+1)-th
    position fell inside the equal-tail plug-in interval built from the
    first m. ``alpha_stderr`` is the Monte-Carlo standard error of
    ``alpha_mean``; report it alongside the mean because the MLE of
    alpha is biased upward by roughly m / (m - 2) at small m.
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
    independent of execution order and of the other generators.
    """
    if m < 2:
        raise ValueError("study needs m >= 2 to fit, got %d" % m)
    if n_replicates < 1:
        raise ValueError("n_replicates must be positive, got %d" % n_replicates)
    alphas = np.empty(n_replicates)
    betas = np.empty(n_replicates)
    hits = 0
    tail = (1.0 - level) / 2.0
    for k in range(n_replicates):
        rng = np.random.default_rng([seed, _STREAM_STUDY, k])
        pos = _path_positions(rate, m + 1, rng)
        fitted = fit_mle(RecordSequence(pos[:m]))
        alphas[k] = fitted.rate.alpha
        betas[k] = fitted.rate.beta
        query = PredictionQuery(fitted=fitted, s=m + 1)
        low = predict_quantile(query, tail)
        high = predict_quantile(query, 1.0 - tail)
        if low <= pos[m] <= high:
            hits += 1
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

"""Independent oracles for every output the benchmark checks.

Nothing here calls pipecorr. The MLE is recomputed in plain numpy,
predictive means by ``scipy.integrate.quad`` of the conditional
density, quantiles through ``scipy.special.gammaincinv``, the KS p-value
through ``scipy.special.kolmogorov``, and the estimator study by a
scalar loop over the same (seed, 2, k) streams. Each ``check_*``
returns None when the output agrees and a one-line reason otherwise.
"""

import csv
import json
import math
import re

import numpy as np
from scipy import integrate, special

MLE_RTOL = 1e-10
MEAN_RTOL = 1e-8  # the library's own quadrature stopping rule
QUANTILE_RTOL = 1e-10
KS_ATOL = 1e-10
TEXT_RTOL = 5e-6  # human-readable CLI output keeps 6 significant digits
LEVEL = 0.95


def _close(got, want, rtol, atol=0.0):
    return abs(float(got) - float(want)) <= rtol * abs(float(want)) + atol


def _mismatch(what, got, want):
    return "%s: got %r, oracle %r" % (what, float(got), float(want))


def mle(pos):
    """(alpha, beta, log-likelihood) of the closed-form fit of pos."""
    pos = np.asarray(pos, dtype=float)
    m = pos.size
    alpha = m / np.sum(np.log(pos[-1] / pos[:-1]))
    log_beta = np.log(m) - alpha * np.log(pos[-1])
    loglik = m * (np.log(alpha) + log_beta) + (alpha - 1) * np.sum(np.log(pos)) - m
    return alpha, np.exp(log_beta), loglik


def _rate_at(alpha, beta, r_m):
    """Lambda(r_m) = beta * r_m**alpha, evaluated without overflow."""
    return np.exp(np.log(beta) + alpha * np.log(r_m))


def quantile(alpha, beta, r_m, k, p):
    """p-quantile of the (m+k)-th record given the m-th at r_m."""
    return r_m * np.exp(np.log1p(special.gammaincinv(k, p) / _rate_at(alpha, beta, r_m)) / alpha)


def density(alpha, beta, r_m, k):
    """Conditional density of the (m+k)-th record, as a function of y.

    Evaluated in log space with x = alpha * log(y / r_m), where
    Lambda(y) - Lambda(r_m) = Lambda(r_m) * expm1(x); past x = 700 the
    density underflows to 0.
    """
    base = float(_rate_at(alpha, beta, r_m))
    const = math.log(alpha * base) - math.lgamma(k)

    def f(y):
        x = alpha * math.log(y / r_m)
        if not 0 < x <= 700:
            return 0.0
        delta = base * math.expm1(x)
        return math.exp((k - 1) * math.log(delta) + const + x - math.log(y) - delta)

    return f


def predictive_mean(alpha, beta, r_m, k):
    """Mean of the (m+k)-th record: quad of y * density over (r_m, inf).

    The range is split at quantiles so that quad sees the mass even when
    the distribution is very narrow or very heavy-tailed.
    """
    f = density(alpha, beta, r_m, k)
    cuts = [r_m] + [quantile(alpha, beta, r_m, k, p) for p in (0.5, 0.999, 1 - 1e-12)] + [np.inf]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        value, _ = integrate.quad(lambda y: y * f(y), lo, hi, epsabs=0.0, epsrel=1e-11,
                                  limit=200)
        total += value
    return total


def ks(alpha, beta, pos):
    """Time-rescaling KS statistic and Stephens-rescaled p-value."""
    lam = beta * np.concatenate(([0.0], pos)) ** alpha
    cdf = 1.0 - np.exp(-np.sort(np.diff(lam)))
    n = cdf.size
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    x = (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)) * d
    return d, special.kolmogorov(x)


def _check_fit(what, got, pos, rtol=MLE_RTOL):
    """got = (m, alpha, beta, log-likelihood, r_m)."""
    alpha, beta, loglik = mle(pos)
    want = (len(pos), alpha, beta, loglik, pos[-1])
    for name, g, w in zip(("m", "alpha", "beta", "log_likelihood", "r_m"), got, want):
        # The log-likelihood can sit near 0, so it also gets an absolute slack.
        if not _close(g, w, rtol, rtol if name == "log_likelihood" else 0.0):
            return _mismatch("%s %s" % (what, name), g, w)
    return None


def _check_prediction(what, got, alpha, beta, r_m, k, mean_rtol=MEAN_RTOL,
                      q_rtol=QUANTILE_RTOL):
    """got = (mean, median, interval_low, interval_high)."""
    tail = (1.0 - LEVEL) / 2.0
    want = (predictive_mean(alpha, beta, r_m, k),
            quantile(alpha, beta, r_m, k, 0.5),
            quantile(alpha, beta, r_m, k, tail),
            quantile(alpha, beta, r_m, k, 1.0 - tail))
    rtols = (mean_rtol, q_rtol, q_rtol, q_rtol)
    for name, g, w, rtol in zip(("mean", "median", "low", "high"), got, want, rtols):
        if not _close(g, w, rtol):
            return _mismatch("%s k=%d %s" % (what, k, name), g, w)
    return None


def _check_ks(what, got, alpha, beta, pos):
    want = ks(alpha, beta, pos)
    for name, g, w in zip(("ks_statistic", "p_value"), got, want):
        if not _close(g, w, 0.0, KS_ATOL):
            return _mismatch("%s %s" % (what, name), g, w)
    return None


def check_segment_batch(surveys, table):
    """table rows: fit(5), then (s, mean, median, low, high) per step, then KS(2)."""
    if len(table) != len(surveys):
        return "expected %d segments, got %d" % (len(surveys), len(table))
    for i, (pos, row) in enumerate(zip(surveys, table)):
        m = len(pos)
        alpha, beta, _ = mle(pos)
        steps = ((row[5], row[6:10]), (row[10], row[11:15]))
        problem = _check_fit("segment %d fit" % i, row[:5], pos)
        for s, prediction in steps:
            problem = problem or _check_prediction(
                "segment %d" % i, prediction, alpha, beta, pos[-1], int(s) - m)
        problem = problem or _check_ks("segment %d gof" % i, row[15:17], alpha, beta, pos)
        if problem:
            return problem
    return None


def _check_backtest(pos, bt):
    """bt rows: (k, alpha, beta, predicted_next, observed_next)."""
    if [int(r[0]) for r in bt] != list(range(2, len(pos))):
        return "backtest rows are not k = 2 .. %d" % (len(pos) - 1)
    for k, alpha, beta, predicted, observed in bt:
        k = int(k)
        want_alpha, want_beta, _ = mle(pos[:k])
        for name, g, w, rtol in (("alpha", alpha, want_alpha, MLE_RTOL),
                                 ("beta", beta, want_beta, MLE_RTOL),
                                 ("observed", observed, pos[k], 0.0),
                                 ("predicted", predicted,
                                  predictive_mean(want_alpha, want_beta, pos[k - 1], 1),
                                  MEAN_RTOL)):
            if not _close(g, w, rtol):
                return _mismatch("backtest k=%d %s" % (k, name), g, w)
    return None


def check_long_survey(pos, out):
    problem = _check_backtest(pos, out["backtest"])
    if problem:
        return problem
    fits = out["fits"]
    if [int(f[0]) for f in fits] != list(range(2, len(pos) + 1)):
        return "sequential fits are not m = 2 .. %d" % len(pos)
    for row in fits:
        problem = _check_fit("prefix %d fit" % int(row[0]), row, pos[:int(row[0])])
        if problem:
            return problem
    alpha, beta, _ = mle(pos)
    return _check_ks("gof", out["gof"], alpha, beta, pos)


def study(inputs):
    """The estimator study as a scalar loop over streams (seed, 2, k).

    Positions, fits and interval ends use the same floating-point steps
    as the library, so alpha_median and coverage must agree exactly.
    """
    alpha, beta, m = inputs["alpha"], inputs["beta"], inputs["m"]
    n = inputs["n_replicates"]
    tail = (1.0 - LEVEL) / 2.0
    g_low, g_high = special.gammaincinv(1.0, tail), special.gammaincinv(1.0, 1.0 - tail)
    alphas, betas = np.empty(n), np.empty(n)
    hits = 0
    for k in range(n):
        u = np.random.default_rng([inputs["seed"], 2, k]).random(m + 1)
        pos = np.exp((1.0 / alpha) * np.log(np.cumsum(-np.log1p(-u)) / beta))
        a = m / float(np.sum(np.log(pos[m - 1] / pos[:m - 1])))
        b = float(m / np.exp(a * np.log(pos[m - 1])))
        base = b * np.exp(a * np.log(pos[m - 1]))
        low = np.exp((1.0 / a) * np.log((base + g_low) / b))
        high = np.exp((1.0 / a) * np.log((base + g_high) / b))
        alphas[k], betas[k] = a, b
        hits += bool(low <= pos[m] <= high)
    return {
        "alpha_mean": np.mean(alphas), "alpha_median": np.median(alphas),
        "alpha_std": np.std(alphas, ddof=1), "beta_mean": np.mean(betas),
        "beta_median": np.median(betas), "beta_std": np.std(betas, ddof=1),
        "coverage": hits / n,
    }


def check_calibration_study(result, want):
    for name in ("alpha_median", "coverage"):
        if getattr(result, name) != want[name]:
            return _mismatch(name + " (exact)", getattr(result, name), want[name])
    for name, w in want.items():
        if not _close(getattr(result, name), w, 1e-12):
            return _mismatch(name, getattr(result, name), w)
    return None


# CLI invocations. Each checker gets argv, stdout and the CSV positions.

def _csv_column(text, header):
    rows = list(csv.reader(text.splitlines()))
    if rows[0] != header:
        raise ValueError("header %r, expected %r" % (rows[0], header))
    return np.array([[float(c) for c in row] for row in rows[1:]])


def _fit_line(text):
    m = re.search(r"fit on m=(\d+) records: alpha (\S+), beta (\S+), "
                  r"log-likelihood (\S+) \(last record (\S+) km\)", text)
    return [float(x) for x in m.groups()]


def _text_prediction(text):
    pat = r"mean +(\S+) km\n +median (\S+) km\n +\S+% interval \[(\S+), (\S+)\] km"
    return [float(x) for x in re.search(pat, text).groups()]


def _json_fit(section):
    return [section["m"], section["alpha"], section["beta"], section["log_likelihood"],
            section["r_m_km"]]


def _cli_fit(argv, out, pos):
    return _check_fit("fit", _fit_line(out), pos, TEXT_RTOL)


def _cli_predict(argv, out, pos):
    holdout = int(argv[argv.index("--holdout") + 1]) if "--holdout" in argv else 0
    steps = int(argv[argv.index("--steps") + 1]) if "--steps" in argv else 1
    fit_pos = pos[:len(pos) - holdout]
    alpha, beta, _ = mle(fit_pos)
    if "--json" in argv:
        report = json.loads(out)
        p = report["prediction"]
        got = [p["mean_km"], p["median_km"], p["interval_low_km"], p["interval_high_km"]]
        return (_check_fit("fit", _json_fit(report["fit"]), fit_pos)
                or _check_prediction("predict", got, alpha, beta, fit_pos[-1], steps))
    return (_check_fit("fit", _fit_line(out), fit_pos, TEXT_RTOL)
            or _check_prediction("predict", _text_prediction(out), alpha, beta, fit_pos[-1],
                                 steps, TEXT_RTOL, TEXT_RTOL))


def _cli_gof(argv, out, pos):
    holdout = int(argv[argv.index("--holdout") + 1])
    fit_pos = pos[:len(pos) - holdout]
    report = json.loads(out)
    alpha, beta, _ = mle(fit_pos)
    gof = report["gof"]
    return (_check_fit("fit", _json_fit(report["fit"]), fit_pos)
            or _check_ks("gof", (gof["ks_statistic"], gof["p_value"]), alpha, beta, fit_pos))


def _cli_backtest(argv, out, pos):
    rows = json.loads(out)["backtest"]
    return _check_backtest(pos, [[r["k"], float(r["alpha"]), float(r["beta"]),
                                  float(r["predicted_next_km"]), float(r["observed_next_km"])]
                                 for r in rows])


def _cli_simulate(argv, out, pos):
    arg = {k: argv[argv.index(k) + 1] for k in ("--alpha", "--beta", "--m", "--seed")}
    alpha, beta = float(arg["--alpha"]), float(arg["--beta"])
    u = np.random.default_rng([int(arg["--seed"]), 0]).random(int(arg["--m"]))
    want = (np.cumsum(-np.log1p(-u)) / beta) ** (1.0 / alpha)
    got = _csv_column(out, ["position_km"])[:, 0]
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=0.0):
        return "simulate: positions differ from the stream (seed, 0) inversion"
    return None


def _cli_plot_data(argv, out, pos):
    if argv[1] == "rate":
        arg = {k: float(argv[argv.index(k) + 1]) for k in ("--alpha", "--beta", "--t-max")}
        alpha, beta = arg["--alpha"], arg["--beta"]
        t = np.linspace(0.0, arg["--t-max"], 200)
        want = np.column_stack([t, alpha * beta * t ** (alpha - 1.0)])
        got = _csv_column(out, ["t", "lambda"])
    else:
        alpha, beta, _ = mle(pos)
        y = np.linspace(pos[-1], quantile(alpha, beta, pos[-1], 1, 0.995), 200)
        want = np.column_stack([y, [density(alpha, beta, pos[-1], 1)(v) for v in y]])
        got = _csv_column(out, ["y", "density"])
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-10, atol=1e-300):
        return "plot-data %s: curve differs from the closed form" % argv[1]
    return None


_CLI = {
    "fit": _cli_fit,
    "predict": _cli_predict,
    "gof": _cli_gof,
    "backtest": _cli_backtest,
    "simulate": _cli_simulate,
    "plot-data": _cli_plot_data,
}


def check_cli(argv, stdout, data):
    pos = _csv_column(data.decode("utf-8-sig"), ["position_km"])[:, 0]
    try:
        return _CLI[argv[0]](argv, stdout, pos)
    except (ValueError, KeyError, AttributeError, IndexError) as exc:
        return "%s: unreadable output (%s: %s)" % (argv[0], type(exc).__name__, exc)

"""Workload inputs and the timed operations of the pipecorr benchmark.

Every synthetic position is generated here by inversion of the
cumulative rate, T_k = Lambda^{-1}(S_k) with S_k the partial sums of
unit exponentials, from a numpy Generator seeded with
(workload seed, workload stream, op index). pipecorr's own simulator
never builds an input; the library only receives finished arrays.
"""

import hashlib
from pathlib import Path

import numpy as np
import pipecorr as pc

WORKLOADS = ("cli_survey", "segment_batch", "long_survey", "calibration_study")
UNIT = {
    "cli_survey": "invocations",
    "segment_batch": "segments",
    "long_survey": "records",
    "calibration_study": "replicates",
}
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}

DATA_CSV = Path("data") / "corrosion_positions.csv"

SEGMENTS_PER_OP = 250
SEGMENT_M = (8, 60)
SEGMENT_ALPHA = (0.7, 1.8)
SEGMENT_BETA = (0.05, 1.0)
SEGMENT_STEPS = (1, 5)

LONG_M = 500
TRUE_ALPHA, TRUE_BETA = 1.2, 0.17
STUDY_M = 50
STUDY_REPLICATES = 1000
POOL = 16  # distinct synthetic inputs per run

# One op of cli_survey is one of these invocations, in this order, cycling.
# Paths are relative to the checkout root, the children's working directory.
CLI_MIX = (
    ("fit", "{data}"),
    ("predict", "{data}", "--holdout", "1"),
    ("predict", "{data}", "--steps", "5", "--json"),
    ("gof", "{data}", "--holdout", "1", "--json"),
    ("backtest", "{data}", "--json"),
    ("simulate", "--alpha", "1.2", "--beta", "0.17", "--m", "50", "--seed", "{seed}"),
    ("plot-data", "density", "{data}"),
    ("plot-data", "rate", "--alpha", "1.2", "--beta", "0.17", "--t-max", "60"),
)


def positions_by_inversion(rng, alpha, beta, m):
    """First m arrival positions of the rate beta * t**alpha.

    Redraws in the (practically impossible) case that rounding makes two
    neighbours equal, so every input is a valid record sequence.
    """
    while True:
        s = np.cumsum(rng.standard_exponential(m))
        pos = (s / beta) ** (1.0 / alpha)
        if pos[0] > 0 and np.all(np.diff(pos) > 0):
            return pos


def build_inputs(workload, seed, root):
    """The pool of distinct op inputs; op i uses pool[i % len(pool)].

    Equal seeds give equal pools. The pool repeats so that each distinct
    output is checked against the slow oracles once and every repeat is
    compared with it exactly.
    """
    if workload == "cli_survey":
        data = (Path(root) / DATA_CSV).read_bytes()
        return [{"argv": [a.format(data=DATA_CSV, seed=seed) for a in argv], "data": data}
                for argv in CLI_MIX]
    if workload == "calibration_study":
        # The study draws its own replicates from streams (seed, 2, k).
        return [{"alpha": TRUE_ALPHA, "beta": TRUE_BETA, "m": STUDY_M,
                 "n_replicates": STUDY_REPLICATES, "seed": seed}]
    pool = []
    for slot in range(POOL):
        rng = np.random.default_rng([seed, _STREAM[workload], slot])
        if workload == "long_survey":
            pool.append(positions_by_inversion(rng, TRUE_ALPHA, TRUE_BETA, LONG_M))
            continue
        surveys = []
        for _ in range(SEGMENTS_PER_OP):
            alpha = rng.uniform(*SEGMENT_ALPHA)
            beta = rng.uniform(*SEGMENT_BETA)
            m = int(rng.integers(SEGMENT_M[0], SEGMENT_M[1] + 1))
            surveys.append(positions_by_inversion(rng, alpha, beta, m))
        pool.append(surveys)
    return pool


def units(workload, inputs):
    """Units of work in one op: invocations, segments, records or replicates."""
    if workload == "cli_survey":
        return 1
    if workload == "calibration_study":
        return inputs["n_replicates"]
    return len(inputs)


def records_in(workload, inputs):
    """Positions the op hands to (or has drawn by) pipecorr."""
    if workload == "cli_survey":
        return sum(1 for line in inputs["data"].decode().splitlines()[1:] if line.strip())
    if workload == "calibration_study":
        return inputs["m"] * inputs["n_replicates"]
    if workload == "long_survey":
        return len(inputs)
    return sum(len(pos) for pos in inputs)


def digest(inputs):
    """sha256 of the inputs, independent of how Python lays them out."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(key.encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d]" % len(x))
            for item in x:
                feed(item)
        elif isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
        elif isinstance(x, bytes):
            h.update(x)
        else:
            h.update(repr(x).encode())

    feed(inputs)
    return h.hexdigest()


# Timed operations. Each returns pipecorr's own result objects; the
# matching ``extract`` turns them into plain arrays outside the timed
# region, for the oracle checks.

def segment_batch(surveys):
    out = []
    for pos in surveys:
        records = pc.RecordSequence(pos)
        fitted = pc.fit_mle(records)
        predictions = [pc.predict(fitted, s=fitted.m + k) for k in SEGMENT_STEPS]
        out.append((fitted, predictions, pc.gof_report(records, fitted)))
    return out


def long_survey(pos):
    records = pc.RecordSequence(pos)
    rows = pc.backtest(records)
    fits = pc.sequential_fits(records)
    return rows, fits, pc.gof_report(records, fits[-1])


def calibration_study(inputs):
    rate = pc.PowerLawRate(inputs["alpha"], inputs["beta"])
    return pc.estimator_study(rate, m=inputs["m"], n_replicates=inputs["n_replicates"],
                              seed=inputs["seed"])


OPS = {
    "segment_batch": segment_batch,
    "long_survey": long_survey,
    "calibration_study": calibration_study,
}


def _fit_row(f):
    return [f.m, f.alpha, f.beta, f.log_likelihood, f.r_m]


def extract(workload, result):
    if workload == "segment_batch":
        table = []
        for fitted, predictions, gof in result:
            row = _fit_row(fitted)
            for p in predictions:
                row += [p.s, p.mean, p.median, p.interval_low, p.interval_high]
            table.append(row + [gof.ks_statistic, gof.p_value])
        return np.array(table)
    if workload == "long_survey":
        rows, fits, gof = result
        return {
            "backtest": np.array([[r.k, r.alpha, r.beta, r.predicted_next, r.observed_next]
                                  for r in rows]),
            "fits": np.array([_fit_row(f) for f in fits]),
            "gof": (gof.ks_statistic, gof.p_value),
        }
    return result

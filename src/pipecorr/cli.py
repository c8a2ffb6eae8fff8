"""Command-line interface: ingest position CSVs, run the fit / predict /
gof / backtest / simulate / plot-data workflows, emit text or JSON.

Output conventions
------------------
Human-readable reports round numbers half-even to 6 significant digits
(Python ``%.6g``). JSON reports keep full precision by encoding every
float as its shortest round-tripping decimal string, under a top-level
``schema_version: 1``. Errors are one line on standard error in the form

    pipecorr: error[<family>] code=<code> row=<n>: <message>

with ``code``/``row`` present when known. Exit codes: 0 success,
2 usage, 3 data validation, 4 numeric failure.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .diagnostics import KS_ESTIMATED_PARAMS_CAVEAT, gof_report
from .errors import DataValidationError, InsufficientDataError, NumericError
from .forecast import (PredictionQuery, _equal_tails, backtest, density_curve, predict,
                       predict_quantile)
from .inference import RecordSequence, fit_mle
from .model import PowerLawRate, intensity_at
from .simulation import simulate_first_m

__all__ = ["AnalysisReport", "ingest_csv", "build_parser", "main", "console_main"]

_BETA_UNITS_NOTE = (
    "beta has units events/km^alpha; beta values are comparable only at equal alpha"
)


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse normally prints usage and exits; route through UsageError
    # instead so every error family shares the single-line stderr format.
    def error(self, message):
        raise UsageError(message)


def ingest_csv(path):
    """Read a one-column ``position_km`` CSV into a RecordSequence.

    Only parsing happens here; ``RecordSequence`` then checks positivity
    and order, so a parse error in any row is reported first. Rows must
    already be sorted strictly increasing: record order is the model's
    subject matter, so out-of-order or duplicated positions are reported
    as data errors (with the 1-based data row), never repaired.
    """
    p = Path(path)
    if not p.is_file():
        raise DataValidationError("no such file: %s" % p, code="missing-file")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataValidationError("file is not valid UTF-8: %s" % exc, code="bad-encoding")
    rows = list(csv.reader(text.splitlines()))
    if not rows or [c.strip() for c in rows[0]] != ["position_km"]:
        raise DataValidationError(
            "first row must be the header 'position_km'", code="bad-header", row=None
        )
    values = []
    data_row = 0
    for row in rows[1:]:
        if not row or all(c.strip() == "" for c in row):
            continue
        data_row += 1
        if len(row) != 1:
            raise DataValidationError(
                "expected one column at data row %d, got %d" % (data_row, len(row)),
                code="malformed-row",
                row=data_row,
            )
        cell = row[0].strip()
        try:
            x = float(cell)
        except ValueError:
            raise DataValidationError(
                "could not parse %r as a decimal at data row %d" % (cell, data_row),
                code="malformed-number",
                row=data_row,
            )
        if not math.isfinite(x):
            raise DataValidationError(
                "non-finite value %r at data row %d" % (cell, data_row),
                code="malformed-number",
                row=data_row,
            )
        values.append(x)
    if not values:
        raise InsufficientDataError("no data rows after the header")
    return RecordSequence(values)


def _enc(x):
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def _fmt(x):
    """Human display: 6 significant digits, round-half-even."""
    return "%.6g" % float(x)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one CLI invocation reports, JSON-serializable.

    Section dicts hold only strings and ints (floats pre-encoded with
    ``_enc``), which makes ``from_json(to_json(r)) == r`` exact.
    """

    command: str
    input: dict = None
    fit: dict = None
    prediction: dict = None
    gof: dict = None
    backtest: list = None
    simulation: dict = None
    curve: dict = None
    warnings: tuple = ()

    def to_dict(self):
        out = {"schema_version": 1, "command": self.command}
        for f in fields(self):
            if f.name in ("command", "warnings"):
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        out["warnings"] = list(self.warnings)
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise DataValidationError("report must be a JSON object, got %s" % type(d).__name__)
        d = dict(d)
        version = d.pop("schema_version", None)
        if version != 1:
            raise DataValidationError("unsupported schema_version %r" % (version,))
        unknown, missing = sorted(set(d) - {f.name for f in fields(cls)}), {"command"} - set(d)
        if unknown or missing:
            raise DataValidationError("report has unknown keys %s, missing keys %s"
                                      % (unknown, sorted(missing)))
        d["warnings"] = tuple(d.get("warnings", ()))
        return cls(**d)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _input_section(path, records):
    pos = records.positions
    return {"path": str(path), "n": len(pos), "min_km": _enc(min(pos)), "max_km": _enc(max(pos))}


# JSON keys of each section built from a result object, in report order:
# an attribute name, with "_km" appended where the value is a position.
_FIT_KEYS = ("m", "alpha", "beta", "log_likelihood", "r_m_km")
_PREDICTION_KEYS = ("s", "m", "mean_km", "median_km", "interval_low_km", "interval_high_km",
                    "level")
_GOF_KEYS = ("n", "method", "ks_statistic", "p_value")
_BACKTEST_KEYS = ("k", "alpha", "beta", "predicted_next_km", "observed_next_km")


def _section(result, keys):
    """The report section of one result object: floats through ``_enc``, ints and strings as is."""
    values = (getattr(result, key.removesuffix("_km")) for key in keys)
    return {key: _enc(v) if isinstance(v, float) else v for key, v in zip(keys, values)}


def _render_text(report):
    lines = []
    if report.input is not None:
        i = report.input
        lines.append("input: %s records from %s (%s to %s km)"
                     % (i["n"], i["path"], _fmt(i["min_km"]), _fmt(i["max_km"])))
    if report.fit is not None:
        f = report.fit
        lines.append(
            "fit on m=%d records: alpha %s, beta %s, log-likelihood %s (last record %s km)"
            % (f["m"], _fmt(f["alpha"]), _fmt(f["beta"]), _fmt(f["log_likelihood"]), _fmt(f["r_m_km"]))
        )
    if report.prediction is not None:
        p = report.prediction
        lines.append("prediction for record %d given the first %d:" % (p["s"], p["m"]))
        lines.append("  mean   %s km" % _fmt(p["mean_km"]))
        lines.append("  median %s km" % _fmt(p["median_km"]))
        lines.append(
            "  %s%% interval [%s, %s] km"
            % (_fmt(float(p["level"]) * 100), _fmt(p["interval_low_km"]), _fmt(p["interval_high_km"]))
        )
    if report.gof is not None:
        g = report.gof
        lines.append(
            "goodness of fit (%s transform, n=%d): KS statistic %s, p-value %s"
            % (g["method"], g["n"], _fmt(g["ks_statistic"]), _fmt(g["p_value"]))
        )
    if report.backtest is not None:
        lines.append("expanding-window backtest (fit first k, predict record k+1):")
        lines.append("  k   alpha     beta      predicted  observed")
        for row in report.backtest:
            lines.append("  %-3d %-9s %-9s %-10s %s"
                         % (row["k"], *(_fmt(row[key]) for key in _BACKTEST_KEYS[1:])))
    for w in report.warnings:
        lines.append("note: %s" % w)
    return "\n".join(lines)


def _emit(args, out, **sections):
    """Write the report of ``args.command``: JSON with ``--json``, else text."""
    report = AnalysisReport(command=args.command, **sections)
    out.write(report.to_json() + "\n" if args.json else _render_text(report) + "\n")


def _write_csv(out, header, rows):
    """Text output of simulate and plot-data: a header line, then rows of ``_enc`` floats."""
    out.write(header + "\n")
    out.writelines(",".join(map(_enc, row)) + "\n" for row in rows)


def _cmd_fit(args, out):
    records = ingest_csv(args.data)
    _emit(args, out, input=_input_section(args.data, records),
          fit=_section(fit_mle(records), _FIT_KEYS), warnings=(_BETA_UNITS_NOTE,))


def _holdout_fit(records, holdout):
    """The held-in prefix of the records and its fit."""
    if holdout < 0:
        raise UsageError("--holdout must be nonnegative")
    m = len(records) - holdout
    if m < 2:
        raise UsageError(
            "need at least 2 records after holdout, have %d - %d" % (len(records), holdout)
        )
    held_in = records.prefix(m)
    return held_in, fit_mle(held_in)


def _check_steps(steps):
    if not 1 <= steps <= 2 ** 53:  # past 2**53 the gamma shape is not an exact float
        raise UsageError("--steps must be between 1 and 2**53")


def _cmd_predict(args, out):
    _check_steps(args.steps)
    try:
        _equal_tails(args.level)
    except ValueError as exc:
        raise UsageError("--level: %s" % exc)
    records = ingest_csv(args.data)
    _, fitted = _holdout_fit(records, args.holdout)
    result = predict(fitted, s=fitted.m + args.steps, level=args.level)
    _emit(args, out, input=_input_section(args.data, records), fit=_section(fitted, _FIT_KEYS),
          prediction=_section(result, _PREDICTION_KEYS), warnings=(_BETA_UNITS_NOTE,))


def _cmd_gof(args, out):
    records = ingest_csv(args.data)
    held_in, fitted = _holdout_fit(records, args.holdout)
    gof = gof_report(held_in, fitted, method=args.method)
    _emit(args, out, input=_input_section(args.data, records), fit=_section(fitted, _FIT_KEYS),
          gof=_section(gof, _GOF_KEYS), warnings=(KS_ESTIMATED_PARAMS_CAVEAT,))


def _cmd_backtest(args, out):
    records = ingest_csv(args.data)
    _emit(args, out, input=_input_section(args.data, records),
          backtest=[_section(row, _BACKTEST_KEYS) for row in backtest(records)],
          warnings=(_BETA_UNITS_NOTE,))


def _rate_from_args(args):
    if not (0 < args.alpha < math.inf and 0 < args.beta < math.inf):
        raise UsageError("--alpha and --beta must be positive and finite")
    return PowerLawRate(args.alpha, args.beta)


def _cmd_simulate(args, out):
    rate = _rate_from_args(args)
    if args.m < 1:
        raise UsageError("--m must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    path = simulate_first_m(rate, args.m, args.seed)
    if args.json:
        _emit(args, out, simulation={
            "alpha": _enc(rate.alpha),
            "beta": _enc(rate.beta),
            "m": args.m,
            "seed": args.seed,
            "positions_km": [_enc(x) for x in path.positions],
        })
    else:
        _write_csv(out, "position_km", ((x,) for x in path.positions))


def _cmd_plot_data(args, out):
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    if args.kind == "rate":
        rate = _rate_from_args(args)
        if not 0 <= args.t_min < args.t_max < math.inf:
            raise UsageError("need 0 <= --t-min < --t-max, both finite")
        if rate.alpha < 1 and args.t_min == 0:
            raise UsageError("--t-min must be positive when alpha < 1 (rate diverges at 0)")
        grid = np.linspace(args.t_min, args.t_max, args.points)
        with np.errstate(all="ignore"):
            lam = intensity_at(rate, grid)
        if not np.isfinite(lam).all():
            raise NumericError("rate at alpha=%r, beta=%r leaves the float range on [%r, %r]"
                               % (rate.alpha, rate.beta, args.t_min, args.t_max))
        # --form plain drops the alpha factor, matching rate curves
        # published as beta * t**(alpha - 1).
        if args.form == "plain":
            lam = lam / rate.alpha
        pairs = np.column_stack([grid, lam])
        header = "t,lambda"
    else:
        records = ingest_csv(args.data)
        _, fitted = _holdout_fit(records, args.holdout)
        _check_steps(args.steps)
        query = PredictionQuery(fitted=fitted, s=fitted.m + args.steps)
        y_min = fitted.r_m if args.y_min is None else args.y_min
        y_max = predict_quantile(query, 0.995) if args.y_max is None else args.y_max
        if not fitted.r_m <= y_min < y_max < math.inf:
            raise UsageError("need r_m <= --y-min < --y-max, both finite")
        pairs = density_curve(query, y_min, y_max, args.points)
        header = "y,density"
    if args.json:
        _emit(args, out, curve={
            "kind": args.kind,
            "columns": header.split(","),
            "points": [[_enc(a), _enc(b)] for a, b in pairs],
        })
    else:
        _write_csv(out, header, pairs)


def build_parser():
    parser = _Parser(
        prog="pipecorr",
        description="Power-law record-value analysis of defect positions along a line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit of a position CSV")
    p_fit.add_argument("data", help="CSV file with header position_km")
    p_fit.add_argument("--json", action="store_true", help="emit the JSON report schema")

    p_pred = sub.add_parser("predict", help="predict future record positions")
    p_pred.add_argument("data")
    p_pred.add_argument("--steps", type=int, default=1, help="records ahead of the fit (default 1)")
    p_pred.add_argument("--level", type=float, default=0.95, help="interval coverage (default 0.95)")
    p_pred.add_argument(
        "--holdout", type=int, default=0, help="fit on all but the last h records (default 0)"
    )
    p_pred.add_argument("--json", action="store_true")

    p_gof = sub.add_parser("gof", help="time-rescaling goodness-of-fit test")
    p_gof.add_argument("data")
    p_gof.add_argument("--holdout", type=int, default=0)
    p_gof.add_argument(
        "--method", choices=("increments", "log-ratio"), default="increments",
        help="exponential reduction to test (default increments)",
    )
    p_gof.add_argument("--json", action="store_true")

    p_back = sub.add_parser("backtest", help="one-step-ahead expanding-window evaluation")
    p_back.add_argument("data")
    p_back.add_argument("--json", action="store_true")

    p_sim = sub.add_parser("simulate", help="simulate record positions to CSV")
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument("--beta", type=float, required=True)
    p_sim.add_argument("--m", type=int, required=True, help="number of positions")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--json", action="store_true")

    p_plot = sub.add_parser("plot-data", help="two-column CSV for rate or density curves")
    kind = p_plot.add_subparsers(dest="kind", required=True)

    k_rate = kind.add_parser("rate", help="fitted or specified rate curve, columns t,lambda")
    k_rate.add_argument("--alpha", type=float, required=True)
    k_rate.add_argument("--beta", type=float, required=True)
    k_rate.add_argument("--t-min", type=float, default=0.0)
    k_rate.add_argument("--t-max", type=float, required=True)
    k_rate.add_argument("--points", type=int, default=200)
    k_rate.add_argument(
        "--form", choices=("model", "plain"), default="model",
        help="model: alpha*beta*t^(alpha-1); plain: beta*t^(alpha-1)",
    )
    k_rate.add_argument("--json", action="store_true")

    k_dens = kind.add_parser("density", help="predictive density curve, columns y,density")
    k_dens.add_argument("data")
    k_dens.add_argument("--holdout", type=int, default=0)
    k_dens.add_argument("--steps", type=int, default=1)
    k_dens.add_argument("--y-min", type=float, default=None)
    k_dens.add_argument("--y-max", type=float, default=None)
    k_dens.add_argument("--points", type=int, default=200)
    k_dens.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "gof": _cmd_gof,
    "backtest": _cmd_backtest,
    "simulate": _cmd_simulate,
    "plot-data": _cmd_plot_data,
}


def _error_line(family, exc):
    parts = ["pipecorr: error[%s]" % family]
    code = getattr(exc, "code", None)
    if code:
        parts.append("code=%s" % code)
    row = getattr(exc, "row", None)
    if row is not None:
        parts.append("row=%d" % row)
    message = " ".join(str(exc).split())
    return "%s: %s" % (" ".join(parts), message)


def main(argv=None, out=None, err=None):
    """Run one CLI invocation; returns the process exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _HANDLERS[args.command](args, out)
        return 0
    except UsageError as exc:
        err.write(_error_line("usage", exc) + "\n")
        return 2
    except DataValidationError as exc:
        err.write(_error_line("data", exc) + "\n")
        return 3
    except NumericError as exc:
        err.write(_error_line("numeric", exc) + "\n")
        return 4


def console_main():
    raise SystemExit(main())

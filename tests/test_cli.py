import io
import json
import re

import numpy as np
import pytest

from pipecorr import (
    AnalysisReport,
    DataValidationError,
    InsufficientDataError,
    ingest_csv,
)
from pipecorr import cli
from conftest import (
    ORACLE_ALPHA_17,
    ORACLE_BETA_17,
    ORACLE_KS_D_17,
    ORACLE_KS_P_17,
    ORACLE_MEAN_18,
    REFERENCE_ALPHA_17,
    REFERENCE_BETA_17,
    REFERENCE_INTERVAL_18,
    REFERENCE_MEDIAN_18,
)

ERROR_LINE = re.compile(r"^pipecorr: error\[(usage|data|numeric)\]( \S+)*: .+$")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


class TestIngest:
    def test_survey_file(self, survey_csv):
        records = ingest_csv(survey_csv)
        assert len(records) == 18
        assert min(records.positions) == 0.772
        assert max(records.positions) == 50.545

    def test_crlf_accepted(self, write_csv):
        path = write_csv([1.0, 2.0, 3.0], newline="\r\n")
        assert len(ingest_csv(path)) == 3

    def test_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfposition_km\n1.5\n2.5\n")
        assert len(ingest_csv(path)) == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("position_km\n1.0\n\n2.0\n\n")
        assert len(ingest_csv(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError) as excinfo:
            ingest_csv(tmp_path / "nope.csv")
        assert excinfo.value.code == "missing-file"

    def test_bad_header(self, write_csv):
        path = write_csv([1.0], header="distance")
        with pytest.raises(DataValidationError) as excinfo:
            ingest_csv(path)
        assert excinfo.value.code == "bad-header"

    def test_malformed_number(self, write_csv):
        path = write_csv([1.0, "abc", 3.0])
        with pytest.raises(DataValidationError) as excinfo:
            ingest_csv(path)
        assert excinfo.value.code == "malformed-number"
        assert excinfo.value.row == 2

    def test_nonpositive(self, write_csv):
        path = write_csv([1.0, -0.5])
        with pytest.raises(DataValidationError) as excinfo:
            ingest_csv(path)
        assert excinfo.value.code == "nonpositive"
        assert excinfo.value.row == 2

    def test_duplicate_row(self, write_csv):
        path = write_csv([1.0, 1.0])
        with pytest.raises(DataValidationError) as excinfo:
            ingest_csv(path)
        assert excinfo.value.code == "duplicate"
        assert excinfo.value.row == 2

    def test_out_of_order(self, write_csv):
        path = write_csv([2.0, 1.0])
        with pytest.raises(DataValidationError) as excinfo:
            ingest_csv(path)
        assert excinfo.value.code == "non-increasing"
        assert excinfo.value.row == 2

    def test_empty_data_section(self, write_csv):
        path = write_csv([])
        with pytest.raises(InsufficientDataError):
            ingest_csv(path)

    def test_parse_error_precedes_order_error(self, write_csv):
        path = write_csv([2.0, 1.0, "abc"])
        with pytest.raises(DataValidationError) as excinfo:
            ingest_csv(path)
        assert excinfo.value.code == "malformed-number"
        assert excinfo.value.row == 3

    def test_extra_column(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("position_km\n1.0,2.0\n")
        with pytest.raises(DataValidationError) as excinfo:
            ingest_csv(path)
        assert excinfo.value.code == "malformed-row"


class TestFitCommand:
    def test_json_fit(self, survey17_csv):
        doc = run_json(["fit", survey17_csv, "--json"])
        assert doc["schema_version"] == 1
        assert doc["command"] == "fit"
        assert doc["input"]["n"] == 17
        assert abs(float(doc["fit"]["alpha"]) - REFERENCE_ALPHA_17) <= 5e-4
        assert abs(float(doc["fit"]["beta"]) - REFERENCE_BETA_17) <= 5e-4

    def test_text_fit(self, survey17_csv):
        code, out, _ = run_cli(["fit", survey17_csv])
        assert code == 0
        assert "alpha 1.18081" in out
        assert "beta 0.166153" in out
        assert "events/km^alpha" in out  # units warning present


class TestPredictCommand:
    def test_single_step_holdout(self, survey_csv):
        doc = run_json(
            ["predict", survey_csv, "--steps", "1", "--holdout", "1", "--level", "0.95", "--json"]
        )
        pred = doc["prediction"]
        assert pred["s"] == 18 and pred["m"] == 17
        assert np.isclose(float(pred["mean_km"]), ORACLE_MEAN_18, rtol=1e-9)
        assert abs(float(pred["median_km"]) - REFERENCE_MEDIAN_18) <= 0.01
        assert abs(float(pred["interval_low_km"]) - REFERENCE_INTERVAL_18[0]) <= 0.02
        assert abs(float(pred["interval_high_km"]) - REFERENCE_INTERVAL_18[1]) <= 0.02
        assert float(doc["fit"]["alpha"]) == ORACLE_ALPHA_17
        assert float(doc["fit"]["beta"]) == ORACLE_BETA_17

    def test_text_contains_rounded_numbers(self, survey_csv):
        code, out, _ = run_cli(["predict", survey_csv, "--holdout", "1"])
        assert code == 0
        assert "52.858" in out
        assert "52.1039" in out

    def test_defaults(self, survey_csv):
        doc = run_json(["predict", survey_csv, "--json"])
        assert doc["prediction"]["s"] == 19  # m = 18, one step ahead
        assert float(doc["prediction"]["level"]) == 0.95

    def test_usage_errors(self, survey_csv):
        for argv in (
            ["predict", survey_csv, "--steps", "0"],
            ["predict", survey_csv, "--level", "1.0"],
            ["predict", survey_csv, "--holdout", "-1"],
            ["predict", survey_csv, "--holdout", "17"],
        ):
            code, out, err = run_cli(argv)
            assert code == 2
            assert out == ""
            assert ERROR_LINE.match(err.strip()), err


class TestGofCommand:
    def test_json_gof(self, survey_csv):
        doc = run_json(["gof", survey_csv, "--holdout", "1", "--json"])
        assert doc["gof"]["n"] == 17
        assert np.isclose(float(doc["gof"]["ks_statistic"]), ORACLE_KS_D_17, rtol=1e-10)
        assert np.isclose(float(doc["gof"]["p_value"]), ORACLE_KS_P_17, rtol=1e-10)
        assert any("anti-conservative" in w for w in doc["warnings"])

    def test_log_ratio_method(self, survey_csv):
        doc = run_json(["gof", survey_csv, "--holdout", "1", "--method", "log-ratio", "--json"])
        assert doc["gof"]["method"] == "log-ratio"
        assert doc["gof"]["n"] == 16


class TestBacktestCommand:
    def test_rows(self, survey_csv):
        doc = run_json(["backtest", survey_csv, "--json"])
        rows = doc["backtest"]
        assert [r["k"] for r in rows] == list(range(2, 18))
        first = rows[0]
        assert abs(float(first["alpha"]) - 1.5830) <= 5e-4
        assert abs(float(first["predicted_next_km"]) - 3.4901) <= 5e-4
        assert float(first["observed_next_km"]) == 3.174


class TestSimulateCommand:
    def test_csv_output_reingestible(self, tmp_path):
        code, out, _ = run_cli(["simulate", "--alpha", "1.2", "--beta", "0.17", "--m", "200", "--seed", "3"])
        assert code == 0
        assert out.splitlines()[0] == "position_km"
        path = tmp_path / "sim.csv"
        path.write_text(out)
        records = ingest_csv(path)
        assert len(records) == 200
        from pipecorr import fit_mle

        fitted = fit_mle(records)
        # MC tolerance: alpha_hat scatters around 1.2 with sd ~ alpha/sqrt(m)
        assert abs(fitted.rate.alpha - 1.2) <= 0.3

    def test_byte_identical_runs(self):
        argv = ["simulate", "--alpha", "1", "--beta", "1", "--m", "5", "--seed", "7"]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second

    def test_json_variant(self):
        doc = run_json(["simulate", "--alpha", "1", "--beta", "1", "--m", "4", "--seed", "2", "--json"])
        assert doc["command"] == "simulate"
        assert len(doc["simulation"]["positions_km"]) == 4

    def test_usage_validation(self):
        code, _, err = run_cli(["simulate", "--alpha", "-1", "--beta", "1", "--m", "5", "--seed", "7"])
        assert code == 2
        assert ERROR_LINE.match(err.strip())
        code, _, _ = run_cli(["simulate", "--beta", "1", "--m", "5", "--seed", "7"])
        assert code == 2


class TestPlotDataCommand:
    def test_rate_curve(self):
        code, out, _ = run_cli(
            ["plot-data", "rate", "--alpha", "2", "--beta", "1", "--t-max", "3", "--points", "4"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,lambda"
        assert len(lines) == 5
        t_last, lam_last = (float(v) for v in lines[-1].split(","))
        assert t_last == 3.0
        assert np.isclose(lam_last, 6.0, rtol=1e-12)

    def test_rate_plain_form(self):
        argv = ["plot-data", "rate", "--alpha", "2", "--beta", "1", "--t-min", "1", "--t-max", "3", "--points", "3"]
        _, model_out, _ = run_cli(argv)
        _, plain_out, _ = run_cli(argv + ["--form", "plain"])
        lam_model = float(model_out.strip().splitlines()[-1].split(",")[1])
        lam_plain = float(plain_out.strip().splitlines()[-1].split(",")[1])
        assert np.isclose(lam_model, 2.0 * lam_plain, rtol=1e-12)

    def test_density_curve(self, survey_csv):
        code, out, _ = run_cli(
            ["plot-data", "density", survey_csv, "--holdout", "1", "--points", "8"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,density"
        first_y, first_d = (float(v) for v in lines[1].split(","))
        assert first_y == 50.37  # defaults to the last fitted record
        assert first_d == 0.0

    def test_density_json(self, survey_csv):
        doc = run_json(
            ["plot-data", "density", survey_csv, "--points", "5", "--json"]
        )
        assert doc["curve"]["columns"] == ["y", "density"]
        assert len(doc["curve"]["points"]) == 5

    def test_rate_divergence_guard(self):
        code, _, err = run_cli(
            ["plot-data", "rate", "--alpha", "0.5", "--beta", "1", "--t-max", "3"]
        )
        assert code == 2
        assert ERROR_LINE.match(err.strip())


class TestErrorChannel:
    def test_data_errors_exit_3(self, tmp_path, write_csv):
        code, out, err = run_cli(["fit", str(tmp_path / "missing.csv")])
        assert code == 3
        assert out == ""
        line = err.strip()
        assert "\n" not in line
        assert ERROR_LINE.match(line)
        assert "code=missing-file" in line

        path = write_csv([1.0, 1.0])
        code, _, err = run_cli(["fit", path])
        assert code == 3
        assert "code=duplicate" in err
        assert "row=2" in err

    def test_unknown_flag_exits_2(self, survey_csv):
        code, _, err = run_cli(["fit", survey_csv, "--frobnicate"])
        assert code == 2
        assert ERROR_LINE.match(err.strip())

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "inf", "--beta", "1", "--m", "5", "--seed", "7"],
            ["simulate", "--alpha", "nan", "--beta", "1", "--m", "5", "--seed", "7"],
            ["simulate", "--alpha", "1", "--beta", "inf", "--m", "5", "--seed", "7"],
            ["plot-data", "rate", "--alpha", "nan", "--beta", "1", "--t-max", "3"],
            ["plot-data", "rate", "--alpha", "2", "--beta", "1", "--t-max", "inf"],
            ["plot-data", "rate", "--alpha", "2", "--beta", "1", "--t-min", "nan", "--t-max", "3"],
            ["plot-data", "density", "{survey}", "--y-max", "inf"],
            ["plot-data", "density", "{survey}", "--y-min", "nan"],
        ],
    )
    def test_non_finite_flags_are_usage_errors(self, argv, survey_csv):
        code, out, err = run_cli([a.format(survey=survey_csv) for a in argv])
        assert code == 2
        assert out == ""
        assert ERROR_LINE.match(err.strip()), err
        assert err.startswith("pipecorr: error[usage]")

    @pytest.mark.filterwarnings("error")
    def test_near_tied_records_exit_4(self, write_csv):
        code, out, err = run_cli(["backtest", write_csv([30, 30.01, 31, 33, 40])])
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert ERROR_LINE.match(err.strip()), err

    @pytest.mark.filterwarnings("error")
    def test_scale_overflow_names_both_causes(self, write_csv):
        # r_2 / r_1 = 2 is no near tie; beta of the k = 2 fit underflows from scale alone
        code, out, err = run_cli(["backtest", write_csv([1e300, 2e300, 5e300, 1e301])])
        assert (code, out) == (4, "")
        assert ERROR_LINE.match(err.strip()), err
        assert "r_m 2e+300" in err and "nearly tied" in err and "far from 1" in err

    def test_gap_rounding_to_zero_exits_3(self, write_csv):
        # at alpha_hat ~ 0.1 the first two records map to one float of Lambda
        code, out, err = run_cli(["gof", write_csv([1.0, 1.0000000000000002, 5, 100, 1e6])])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "code=nonpositive" in err

    @pytest.mark.filterwarnings("error")
    def test_simulated_overflow_exits_4(self):
        code, out, err = run_cli(["simulate", "--alpha", "1e-3", "--beta", "1", "--m", "5", "--seed", "1"])
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("pipecorr: error[numeric]")
        assert ERROR_LINE.match(err.strip()), err

    def test_numeric_errors_exit_4(self, survey_csv, monkeypatch):
        from pipecorr.errors import NumericError

        def boom(args, out):
            raise NumericError("quadrature stalled", last_estimate=1.0, previous_estimate=2.0)

        monkeypatch.setitem(cli._HANDLERS, "fit", boom)
        code, _, err = run_cli(["fit", survey_csv])
        assert code == 4
        assert ERROR_LINE.match(err.strip())


class TestReportSchema:
    def test_round_trip(self, survey_csv):
        code, out, _ = run_cli(["predict", survey_csv, "--holdout", "1", "--json"])
        assert code == 0
        report = AnalysisReport.from_json(out)
        assert report.to_json() + "\n" == out
        assert AnalysisReport.from_json(report.to_json()) == report

    def test_schema_version_guard(self):
        with pytest.raises(DataValidationError):
            AnalysisReport.from_dict({"schema_version": 2, "command": "fit"})

    @pytest.mark.parametrize("doc, named", [
        ({"schema_version": 1, "command": "fit", "provenance": {}}, "unknown keys ['provenance']"),
        ({"schema_version": 1}, "missing keys ['command']"),
        ([1], "JSON object"),
    ])
    def test_foreign_documents_are_data_errors(self, doc, named):
        # each is a data error that names the problem, not a TypeError from the dataclass
        with pytest.raises(DataValidationError, match=re.escape(named)):
            AnalysisReport.from_dict(doc)
        with pytest.raises(DataValidationError, match=re.escape(named)):
            AnalysisReport.from_json(json.dumps(doc))

    def test_section_key_order(self, survey_csv):
        # the report bytes follow these orders
        predict = run_json(["predict", survey_csv, "--holdout", "1", "--json"])
        assert list(predict) == ["schema_version", "command", "input", "fit", "prediction",
                                 "warnings"]
        assert list(predict["input"]) == ["path", "n", "min_km", "max_km"]
        assert list(predict["fit"]) == ["m", "alpha", "beta", "log_likelihood", "r_m_km"]
        assert list(predict["prediction"]) == ["s", "m", "mean_km", "median_km",
                                               "interval_low_km", "interval_high_km", "level"]
        gof = run_json(["gof", survey_csv, "--json"])
        assert list(gof) == ["schema_version", "command", "input", "fit", "gof", "warnings"]
        assert list(gof["gof"]) == ["n", "method", "ks_statistic", "p_value"]
        backtest = run_json(["backtest", survey_csv, "--json"])
        assert list(backtest) == ["schema_version", "command", "input", "backtest", "warnings"]
        for row in backtest["backtest"]:
            assert list(row) == ["k", "alpha", "beta", "predicted_next_km", "observed_next_km"]

    def test_golden_stability(self, survey_csv):
        argv = ["predict", survey_csv, "--steps", "1", "--holdout", "1", "--json"]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second


# One-line failures for inputs that once printed a traceback, a raw
# numpy/scipy warning or a misleading success.
REPROS = [
    (["predict", "{survey}", "--steps", "171"], 4),
    (["predict", "{survey}", "--steps", "500"], 4),
    (["predict", "{survey}", "--level", "0.9999999999999999"], 2),
    (["plot-data", "rate", "--alpha", "200", "--beta", "1", "--t-max", "100"], 4),
    (["plot-data", "rate", "--alpha", "1e300", "--beta", "1e300", "--t-max", "100"], 4),
    (["simulate", "--alpha", "1e15", "--beta", "1", "--m", "5", "--seed", "1"], 4),
    (["gof", "{survey}", "--holdout", "16"], 3),
    (["gof", "{survey}", "--holdout", "15", "--method", "log-ratio"], 3),
]

FLOATS = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e-8", "0.5", "3", "1e15",
          "1e300", "1.7976931348623157e308"]
INTS = ["0", "-1", "1", "2", "17", "171", "1" + "0" * 30, "1" + "0" * 400]
SMALL_INTS = ["0", "-1", "1", "2", "1000"]  # --m and --points: no large allocations
LEVELS = FLOATS + ["0.95", "0.9999999999999999", "0.9999999999999998", "1"]

# Each subcommand with valid flags, and the values each flag is swept over,
# one flag at a time.
BASES = {
    "fit": (["fit", "{survey}"], {}),
    "predict": (
        ["predict", "{survey}", "--steps", "1", "--level", "0.95", "--holdout", "1"],
        {"--steps": INTS, "--level": LEVELS, "--holdout": INTS},
    ),
    "gof": (["gof", "{survey}", "--holdout", "1"], {"--holdout": INTS}),
    "gof-log-ratio": (
        ["gof", "{survey}", "--holdout", "1", "--method", "log-ratio"], {"--holdout": INTS}
    ),
    "backtest": (["backtest", "{survey}"], {}),
    "simulate": (
        ["simulate", "--alpha", "1.2", "--beta", "0.17", "--m", "50", "--seed", "1"],
        {"--alpha": FLOATS, "--beta": FLOATS, "--m": SMALL_INTS, "--seed": INTS},
    ),
    "rate": (
        ["plot-data", "rate", "--alpha", "1.2", "--beta", "0.17", "--t-min", "1",
         "--t-max", "60", "--points", "50"],
        {"--alpha": FLOATS, "--beta": FLOATS, "--t-min": FLOATS, "--t-max": FLOATS,
         "--points": SMALL_INTS},
    ),
    "rate-plain": (
        ["plot-data", "rate", "--alpha", "1.2", "--beta", "0.17", "--t-max", "60",
         "--points", "50", "--form", "plain"],
        {"--alpha": FLOATS, "--beta": FLOATS},
    ),
    "density": (
        ["plot-data", "density", "{survey}", "--holdout", "1", "--steps", "2", "--y-min", "51",
         "--y-max", "80", "--points", "50"],
        {"--holdout": INTS, "--steps": INTS, "--y-min": FLOATS, "--y-max": FLOATS,
         "--points": SMALL_INTS},
    ),
}


def fuzz_grid():
    for name, (base, sweeps) in BASES.items():
        yield pytest.param(base, id=name)
        for flag, values in sweeps.items():
            i = base.index(flag) + 1
            for value in values:
                shown = value if len(value) < 25 else "1e%d" % (len(value) - 1)
                yield pytest.param(base[:i] + [value] + base[i + 1:],
                                   id="%s %s=%s" % (name, flag, shown))


def assert_clean_outcome(code, out, err):
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("pipecorr: error["), err
        assert ERROR_LINE.match(err.strip()), err


class TestFuzz:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, code", REPROS,
                             ids=lambda a: " ".join(a) if isinstance(a, list) else None)
    def test_repro_fails_in_one_line(self, argv, code, survey_csv):
        result = run_cli([a.format(survey=survey_csv) for a in argv])
        assert_clean_outcome(*result)
        assert result[0] == code

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", fuzz_grid())
    def test_exit_code_and_single_error_line(self, argv, survey_csv):
        assert_clean_outcome(*run_cli([a.format(survey=survey_csv) for a in argv]))

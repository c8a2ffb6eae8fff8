import numpy as np
import pytest
from scipy import integrate, optimize, special

from pipecorr import (
    FittedModel,
    InsufficientDataError,
    NumericError,
    PowerLawRate,
    PredictionQuery,
    RecordSequence,
    backtest,
    conditional_density,
    cumulative_intensity,
    estimator_study,
    fit_mle,
    predict,
    predict_mean,
    predict_quantile,
    prediction_interval,
)
from conftest import (
    ORACLE_MEAN_18,
    REFERENCE_INTERVAL_18,
    REFERENCE_MEDIAN_18,
)


@pytest.fixture(scope="module")
def query18(fit17):
    return PredictionQuery(fitted=fit17, s=18)


class TestConditionalDensity:
    def test_zero_at_and_below_conditioning_point(self, query18, fit17):
        ys = np.array([0.5, 49.0, fit17.r_m])
        assert np.all(conditional_density(query18, ys) == 0.0)

    def test_positive_on_support(self, query18, fit17):
        assert conditional_density(query18, fit17.r_m + 0.5) > 0.0

    def test_normalization(self, query18, fit17):
        total, err = integrate.quad(
            lambda y: conditional_density(query18, y), fit17.r_m, np.inf, limit=200
        )
        assert abs(total - 1.0) <= 1e-6 + 10 * err

    def test_normalization_multi_step(self, fit17):
        query = PredictionQuery(fitted=fit17, s=22)
        total, err = integrate.quad(
            lambda y: conditional_density(query, y), fit17.r_m, np.inf, limit=200
        )
        assert abs(total - 1.0) <= 1e-6 + 10 * err

    def test_matches_direct_formula(self, query18, fit17):
        # spot-check the closed form at a few points
        rate = fit17.rate
        lam_rm = cumulative_intensity(rate, fit17.r_m)
        for y in (51.0, 53.5, 58.0):
            delta = cumulative_intensity(rate, y) - lam_rm
            lam = rate.alpha * rate.beta * y ** (rate.alpha - 1.0)
            direct = lam * np.exp(-delta)  # s - m = 1
            assert np.isclose(conditional_density(query18, y), direct, rtol=1e-12)

    def test_vectorized(self, query18):
        ys = np.linspace(50.0, 60.0, 7)
        out = conditional_density(query18, ys)
        assert out.shape == ys.shape
        assert np.allclose(out, [conditional_density(query18, y) for y in ys], rtol=1e-15)


class TestPredictMean:
    def test_next_record_after_survey(self, query18):
        mean = predict_mean(query18)
        assert np.isclose(mean, ORACLE_MEAN_18, rtol=1e-9)

    def test_two_record_prefix(self, survey):
        fitted = fit_mle(survey.prefix(2))
        mean = predict_mean(PredictionQuery(fitted=fitted, s=3))
        assert abs(mean - 3.4901) <= 5e-4

    def test_against_y_space_quadrature(self, fit17):
        # independent route: integrate y f(y) dy directly
        query = PredictionQuery(fitted=fit17, s=20)
        ref, err = integrate.quad(
            lambda y: y * conditional_density(query, y), fit17.r_m, np.inf, limit=200
        )
        assert abs(predict_mean(query) - ref) <= 1e-7 + 10 * err

    def test_exceeds_conditioning_point(self, survey):
        for m, s in ((2, 3), (5, 8), (17, 18)):
            fitted = fit_mle(survey.prefix(m))
            assert predict_mean(PredictionQuery(fitted=fitted, s=s)) > fitted.r_m


class TestPredictQuantile:
    def test_median_of_next_record(self, query18):
        med = predict_quantile(query18, 0.5)
        assert abs(med - REFERENCE_MEDIAN_18) <= 0.01

    def test_closed_form_agrees_with_root_finding(self, query18, fit17):
        # oracle: solve CDF(y) = p with a bracketed root search on the
        # gamma reduction
        rate = fit17.rate
        lam_rm = cumulative_intensity(rate, fit17.r_m)
        k = float(query18.s - fit17.m)
        for p in (0.05, 0.5, 0.9, 0.995):
            direct = predict_quantile(query18, p)
            root = optimize.brentq(
                lambda y: special.gammainc(k, cumulative_intensity(rate, y) - lam_rm) - p,
                fit17.r_m + 1e-9,
                200.0,
                rtol=1e-12,
            )
            assert np.isclose(direct, root, rtol=1e-10)

    def test_monotone_in_p(self, query18):
        qs = [predict_quantile(query18, p) for p in (0.1, 0.3, 0.5, 0.7, 0.99)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_domain(self, query18):
        with pytest.raises(ValueError):
            predict_quantile(query18, 0.0)
        with pytest.raises(ValueError):
            predict_quantile(query18, 1.0)


class TestPredictionInterval:
    def test_survey_interval(self, query18):
        low, high = prediction_interval(query18, level=0.95)
        assert abs(low - REFERENCE_INTERVAL_18[0]) <= 0.02
        assert abs(high - REFERENCE_INTERVAL_18[1]) <= 0.02

    def test_equal_tail_property(self, query18, fit17):
        rate = fit17.rate
        lam_rm = cumulative_intensity(rate, fit17.r_m)
        low, high = prediction_interval(query18, level=0.9)
        k = float(query18.s - fit17.m)
        assert np.isclose(
            special.gammainc(k, cumulative_intensity(rate, low) - lam_rm), 0.05, atol=1e-10
        )
        assert np.isclose(
            special.gammainc(k, cumulative_intensity(rate, high) - lam_rm), 0.95, atol=1e-10
        )

    def test_level_validation(self, query18):
        with pytest.raises(ValueError):
            prediction_interval(query18, level=0.0)
        with pytest.raises(ValueError):
            prediction_interval(query18, level=1.0)

    def test_level_whose_tail_rounds_away(self, query18, fit17):
        # 1 - (1 - level) / 2 rounds to 1.0 here; the last level below it works
        with pytest.raises(ValueError, match="upper tail"):
            prediction_interval(query18, level=0.9999999999999999)
        with pytest.raises(ValueError, match="upper tail"):
            predict(fit17, level=0.9999999999999999)
        low, high = prediction_interval(query18, level=0.9999999999999998)
        assert low < high < np.inf
        # the tiny lower tail must not round the end below r_m
        assert low >= fit17.r_m


def hand_built(alpha, beta, r_m, k=1):
    fitted = FittedModel(rate=PowerLawRate(alpha, beta), m=5, r_m=r_m, log_likelihood=0.0)
    return PredictionQuery(fitted=fitted, s=5 + k)


class TestForecastMap:
    def test_underflowing_anchor(self):
        # Lambda(r_m) = 1e-400 underflows; T = r_m * sqrt(1 + w/a) is sqrt(w)
        query = hand_built(2.0, 1.0, 1e-200)
        assert np.isclose(predict_quantile(query, 0.5), np.sqrt(np.log(2.0)), rtol=1e-12)
        # k = 1: f(y) = lambda(y) exp(-delta) = 2 y, as delta is about 1e-400
        assert np.isclose(conditional_density(query, 1.5e-200), 3e-200, rtol=1e-12)

    def test_overflowing_anchor(self):
        # Lambda(r_m) = 1e400 overflows; every quantile rounds to r_m
        query = hand_built(200.0, 1.0, 100.0)
        assert predict_quantile(query, 0.5) == 100.0
        assert prediction_interval(query) == (100.0, 100.0)
        assert conditional_density(query, 100.5) == 0.0

    def test_quantile_past_float_range_is_numeric_error(self):
        # (1 + w)**1000 with w = -log(0.01) is about 1e748
        with pytest.raises(NumericError, match="float range"):
            predict_quantile(hand_built(1e-3, 1.0, 1.0), 0.99)


class TestPredict:
    def test_summary_ordering(self, survey):
        for m, s in ((2, 3), (6, 7), (17, 18), (17, 22)):
            fitted = fit_mle(survey.prefix(m))
            res = predict(fitted, s=s)
            assert fitted.r_m < res.interval_low < res.median < res.interval_high
            assert res.mean > fitted.r_m
            assert res.s == s and res.m == m

    def test_default_is_next_record(self, fit17):
        res = predict(fit17)
        assert res.s == 18

    def test_record_index_must_be_integral(self, fit17):
        # a fractional index is neither a gamma shape of 1.5 nor truncated to 18
        for s in (18.5, 18.0, "18"):
            with pytest.raises(TypeError, match="must be an integer"):
                PredictionQuery(fitted=fit17, s=s)
            with pytest.raises(TypeError, match="must be an integer"):
                predict(fit17, s=s)
        res = predict(fit17, s=np.int64(19))
        assert res.s == 19 and type(res.s) is int

    def test_rejects_past_index(self, fit17):
        with pytest.raises(ValueError):
            PredictionQuery(fitted=fit17, s=17)


class TestDensityCurve:
    """The density on a uniform grid, as ``plot-data density`` tabulates it."""

    @pytest.mark.parametrize("s", [18, 21])
    def test_grid_mass_matches_quantiles(self, fit17, s):
        # the trapezoid mass between the 0.5% and 99.5% quantiles is 0.99
        query = PredictionQuery(fitted=fit17, s=s)
        y = np.linspace(predict_quantile(query, 0.005), predict_quantile(query, 0.995), 4001)
        assert abs(np.trapezoid(conditional_density(query, y), y) - 0.99) <= 1e-6

    def test_survey_curve_peaks_at_left_edge(self, query18):
        # for the one-step-ahead survey fit the conditional density is
        # strictly decreasing on the support, so the top of the plotted
        # range is its left edge
        y = np.linspace(50.545, 55.0, 256)
        dens = conditional_density(query18, y)
        assert int(np.argmax(dens)) == 0
        assert np.all(np.diff(dens) < 0)

    def test_multi_step_curve_has_interior_mode(self, fit17):
        query = PredictionQuery(fitted=fit17, s=21)
        idx = int(np.argmax(conditional_density(query, np.linspace(fit17.r_m, 75.0, 512))))
        assert 0 < idx < 511


class TestBacktest:
    def test_row_alignment(self, survey):
        rows = backtest(survey)
        assert [row.k for row in rows] == list(range(2, 18))
        for row in rows:
            assert row.observed_next == survey.positions[row.k]

    def test_rows_match_independent_fits(self, survey):
        for row in backtest(survey):
            fitted = fit_mle(survey.prefix(row.k))
            assert (row.alpha, row.beta) == (fitted.rate.alpha, fitted.rate.beta)
            assert row.predicted_next == predict_mean(PredictionQuery(fitted=fitted, s=row.k + 1))

    def test_prefixes_are_not_revalidated(self, survey, validations):
        backtest(survey)
        assert validations == []

    def test_last_record_is_never_fitted(self):
        # beta of the fit of all three records underflows (alpha_hat 1.30 at
        # r_m 1e300); the only row, k = 2 (alpha_hat 0.87), does not need it
        records = RecordSequence([1e299, 1e300, 1.001e300])
        with pytest.raises(NumericError):
            fit_mle(records)
        assert [row.k for row in backtest(records)] == [2]

    def test_spot_values(self, survey):
        rows = {row.k: row for row in backtest(survey)}
        assert abs(rows[2].predicted_next - 3.4901) <= 5e-4
        assert abs(rows[17].predicted_next - 52.8580) <= 5e-4

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            backtest(RecordSequence([1.0, 2.0]))


class TestPluginCoverage:
    def test_small_sample_undercoverage(self):
        # Monte-Carlo oracle: at m = 17 the plug-in 95% interval for the
        # next record covers about 91.8% of the time (parameter noise is
        # ignored by the plug-in, so nominal coverage is not reached)
        study = estimator_study(PowerLawRate(1.2, 0.17), m=17, n_replicates=2000, seed=7)
        assert 0.90 <= study.coverage <= 0.94

import numpy as np
import pytest
from scipy import special, stats

from pipecorr import (
    DataValidationError,
    FittedModel,
    InsufficientDataError,
    PowerLawRate,
    cumulative_intensity,
    exponential_transform,
    gof_report,
    ks_exponential_test,
)
from conftest import ORACLE_KS_D_17, ORACLE_KS_P_17


def kolmogorov_survival(x):
    """Oracle: survival function Q(x) of the Kolmogorov distribution.

    For x >= 1.18 the alternating series 2 * sum (-1)**(j-1) exp(-2 j^2 x^2)
    converges in a few terms; below that the theta-function dual form is
    used, which converges fast exactly where the alternating series is
    slow. Both agree to ~1e-15 at the switch point.
    """
    x = float(x)
    if x <= 0.0:
        return 1.0
    if x < 1.18:
        v = np.pi * np.pi / (8.0 * x * x)
        j = np.arange(1, 21, 2)
        cdf = np.sqrt(2.0 * np.pi) / x * np.sum(np.exp(-j * j * v))
        return float(min(1.0, max(0.0, 1.0 - cdf)))
    j = np.arange(1, 101)
    terms = np.exp(-2.0 * j * j * x * x)
    q = 2.0 * np.sum(np.where(j % 2 == 1, terms, -terms))
    return float(min(1.0, max(0.0, q)))


def stephens_x(u):
    n = len(u)
    return (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)) * ks_exponential_test(u)[0]


class TestExponentialTransform:
    def test_increments_shape_and_telescoping(self, survey17, fit17):
        u = exponential_transform(survey17, fit17)
        assert u.shape == (17,)
        assert np.all(u > 0)
        # the increments telescope to the fitted cumulative count at r_m,
        # which the MLE pins to m exactly
        assert np.isclose(np.sum(u), 17.0, rtol=1e-12)

    def test_first_increment_is_cumulative_at_first_record(self, survey17, fit17):
        u = exponential_transform(survey17, fit17)
        assert np.isclose(
            u[0], cumulative_intensity(fit17.rate, survey17.positions[0]), rtol=1e-12
        )

    def test_log_ratio_variant(self, survey17, fit17):
        u = exponential_transform(survey17, fit17, method="log-ratio")
        assert u.shape == (16,)
        # alpha * log(t_i / t_{i-1}) is Exp(i - 1) under the model; the
        # weight i - 1 makes it Exp(1), and the weighted values sum to m
        expected = np.arange(1, 17) * fit17.rate.alpha * np.diff(np.log(survey17.as_array()))
        assert np.allclose(u, expected, rtol=1e-13)
        assert np.isclose(np.sum(u), 17.0, rtol=1e-12)

    def test_mismatched_fit_rejected(self, survey17, survey):
        from pipecorr import fit_mle

        fit18 = fit_mle(survey)
        with pytest.raises(DataValidationError):
            exponential_transform(survey17, fit18)

    def test_unknown_method(self, survey17, fit17):
        with pytest.raises(ValueError):
            exponential_transform(survey17, fit17, method="bogus")

    def test_known_rate_increments(self):
        # with the true rate and simulated arrivals the increments are
        # exactly the underlying exponential partial-sum differences
        rate = PowerLawRate(1.7, 0.4)
        s = np.array([0.3, 1.1, 2.6])
        t = (s / rate.beta) ** (1.0 / rate.alpha)
        u = np.diff(cumulative_intensity(rate, np.concatenate([[0.0], t])))
        assert np.allclose(u, np.diff(np.concatenate([[0.0], s])), rtol=1e-10)


class TestKsStatistic:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for n in (3, 8, 17, 100):
            u = rng.exponential(size=n)
            d = ks_exponential_test(u)[0]
            # plain loop over the jump points of the empirical CDF
            srt = np.sort(u)
            worst = 0.0
            for i, x in enumerate(srt, start=1):
                f = 1.0 - np.exp(-x)
                worst = max(worst, abs(i / n - f), abs((i - 1) / n - f))
            assert abs(d - worst) <= 1e-12

    def test_cross_library(self):
        rng = np.random.default_rng(7)
        u = rng.exponential(size=33)
        d = ks_exponential_test(u)[0]
        ref = stats.kstest(u, "expon").statistic
        assert abs(d - ref) <= 1e-12

    def test_degenerate_sample_has_large_statistic(self):
        # three equal values leave a gap of F(x) on one side
        d = ks_exponential_test(np.array([0.01, 0.01 + 1e-9, 0.01 + 2e-9]))[0]
        assert d > 0.9


class TestKolmogorovSurvival:
    """The p-value path, checked against the two-form series oracle."""

    def test_against_scipy_grid(self):
        xs = np.concatenate([np.linspace(0.01, 1.17, 2500), np.linspace(1.18, 5.0, 2500)])
        for x in xs:
            assert abs(kolmogorov_survival(x) - special.kolmogorov(x)) <= 1e-14

    def test_edges(self):
        # a perfect fit gives D = 1/(2n), a small x and a p-value near 1;
        # a sample far from Exp(1) gives a large x and a p-value near 0
        rng = np.random.default_rng(8)
        for u in (-np.log1p(-(np.arange(1, 41) - 0.5) / 40), rng.uniform(5.0, 6.0, size=50)):
            _, p = ks_exponential_test(u)
            assert abs(p - kolmogorov_survival(stephens_x(u))) <= 1e-14
        assert kolmogorov_survival(0.0) == 1.0 == special.kolmogorov(0.0)
        assert kolmogorov_survival(8.0) < 1e-50

    def test_monotone(self):
        xs = np.linspace(0.01, 3.0, 300)
        for q in (kolmogorov_survival, special.kolmogorov):
            vals = [q(x) for x in xs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestKsExponentialTest:
    def test_survey_values_frozen(self, survey17, fit17):
        u = exponential_transform(survey17, fit17)
        d, p = ks_exponential_test(u)
        assert np.isclose(d, ORACLE_KS_D_17, rtol=1e-10)
        assert np.isclose(p, ORACLE_KS_P_17, rtol=1e-10)

    def test_stephens_rescaling_formula(self):
        rng = np.random.default_rng(3)
        u = rng.exponential(size=25)
        d, p = ks_exponential_test(u)
        n = 25
        x = (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)) * d
        assert p == special.kolmogorov(x)
        assert abs(p - kolmogorov_survival(x)) <= 1e-14

    def test_null_p_values_roughly_uniform(self):
        # calibration under the null: p-values of Exp(1) samples should
        # look uniform; compare their empirical CDF with the diagonal
        rng = np.random.default_rng(2024)
        ps = np.empty(1000)
        for i in range(ps.size):
            _, ps[i] = ks_exponential_test(rng.exponential(size=17))
        srt = np.sort(ps)
        grid = np.arange(1, ps.size + 1) / ps.size
        dist = np.max(np.abs(srt - grid))
        assert dist < 0.08
        assert abs(np.mean(ps) - 0.5) < 0.05

    def test_rejects_bad_input(self):
        with pytest.raises(InsufficientDataError, match="at least 3 values"):
            ks_exponential_test(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            ks_exponential_test(np.array([0.5, -0.1, 1.0]))
        with pytest.raises(DataValidationError, match="strictly positive"):
            ks_exponential_test(np.array([0.5, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, bad):
        # a non-finite value is an error, neither a nan statistic nor a draw
        with pytest.raises(DataValidationError, match="positive and finite") as excinfo:
            ks_exponential_test([1.0, 2.0, bad, 0.5])
        assert excinfo.value.code == "nonpositive"

    def test_detects_non_exponential(self):
        rng = np.random.default_rng(11)
        _, p = ks_exponential_test(rng.uniform(0.4, 0.6, size=200))
        assert p < 1e-6


class TestGofReport:
    def test_fields(self, survey17, fit17):
        rep = gof_report(survey17, fit17)
        assert rep.n == 17
        assert rep.method == "increments"
        assert len(rep.transform_values) == 17
        d, p = ks_exponential_test(np.array(rep.transform_values))
        assert rep.ks_statistic == d
        assert rep.p_value == p

    def test_log_ratio_method(self, survey17, fit17):
        rep = gof_report(survey17, fit17, method="log-ratio")
        assert rep.n == 16
        assert rep.method == "log-ratio"

    def test_log_ratio_accepts_the_model(self):
        # well-specified paths, each fitted and tested: at the 5% level
        # about 5% may be rejected (the unweighted reduction rejected all)
        from pipecorr import fit_mle, simulate_first_m

        ps = []
        for seed in range(300):
            records = simulate_first_m(PowerLawRate(1.3, 0.25), 60, seed=seed)
            ps.append(gof_report(records, fit_mle(records), method="log-ratio").p_value)
        assert np.mean(np.array(ps) < 0.05) <= 0.10

    def test_good_fit_on_simulated_data(self):
        # a path actually drawn from the model should not be rejected
        from pipecorr import fit_mle, simulate_first_m

        records = simulate_first_m(PowerLawRate(1.3, 0.25), 60, seed=5)
        fitted = fit_mle(records)
        rep = gof_report(records, fitted)
        assert rep.p_value > 0.05

import math

import numpy as np
import pytest
from scipy import integrate

from pipecorr import (
    PowerLawRate,
    cumulative_intensity,
    intensity_at,
    inverse_cumulative_intensity,
    log_likelihood,
)
from conftest import ORACLE_ALPHA_17, ORACLE_BETA_17


def survival(rate, t):
    """Oracle: P(no event in [0, t]) = exp(-Lambda(t))."""
    return np.exp(-cumulative_intensity(rate, t))


def event_density(rate, t):
    """Oracle: density of the first event position, lambda(t) * exp(-Lambda(t))."""
    return intensity_at(rate, t) * survival(rate, t)


def test_parameter_validation():
    with pytest.raises(ValueError):
        PowerLawRate(0.0, 1.0)
    with pytest.raises(ValueError):
        PowerLawRate(1.0, -0.2)
    with pytest.raises(ValueError):
        PowerLawRate(math.nan, 1.0)
    with pytest.raises(ValueError):
        PowerLawRate(1.0, math.inf)


class TestIntensity:
    def test_survey_fit_at_unit_distance(self):
        # at t = 1 the rate equals alpha * beta
        rate = PowerLawRate(1.1808, 0.1662)
        assert np.isclose(intensity_at(rate, 1.0), 1.1808 * 0.1662, rtol=1e-14)
        assert np.isclose(intensity_at(rate, 1.0), 0.19625, atol=5e-6)

    def test_constant_rate(self):
        rate = PowerLawRate(1.0, 0.5)
        assert intensity_at(rate, 7.3) == 0.5
        assert intensity_at(rate, 0.0) == 0.5

    def test_linear_rate(self):
        rate = PowerLawRate(2.0, 1.0)
        assert np.isclose(intensity_at(rate, 3.0), 6.0, rtol=1e-14)
        assert intensity_at(rate, 0.0) == 0.0

    def test_divergence_guard(self):
        rate = PowerLawRate(0.8, 1.0)
        with pytest.raises(ValueError):
            intensity_at(rate, 0.0)

    def test_negative_position(self):
        with pytest.raises(ValueError):
            intensity_at(PowerLawRate(1.5, 1.0), -1.0)

    def test_vectorized_matches_scalar(self):
        rate = PowerLawRate(1.37, 0.21)
        ts = np.array([0.5, 1.0, 2.0, 10.0])
        out = intensity_at(rate, ts)
        assert out.shape == ts.shape
        assert np.allclose(out, [intensity_at(rate, t) for t in ts], rtol=1e-15)


class TestCumulative:
    def test_survey_fit_at_last_record(self):
        rate = PowerLawRate(1.1808, 0.1662)
        assert np.isclose(cumulative_intensity(rate, 50.370), 17.005, atol=1e-3)

    def test_fitted_cumulative_hits_m_exactly(self, fit17):
        assert np.isclose(cumulative_intensity(fit17.rate, fit17.r_m), 17.0, rtol=1e-12)

    def test_power_scaling(self):
        # Lambda(2t) / Lambda(t) = 2**alpha for any t > 0
        rate = PowerLawRate(1.7, 0.3)
        for t in (0.1, 1.0, 42.0):
            ratio = cumulative_intensity(rate, 2 * t) / cumulative_intensity(rate, t)
            assert np.isclose(ratio, 2.0 ** 1.7, rtol=1e-13)

    def test_zero(self):
        assert cumulative_intensity(PowerLawRate(0.6, 2.0), 0.0) == 0.0

    def test_matches_integrated_intensity(self):
        rate = PowerLawRate(1.42, 0.77)
        for t in (0.5, 3.0, 12.0):
            ref, err = integrate.quad(lambda x: intensity_at(rate, x), 0.0, t)
            assert abs(cumulative_intensity(rate, t) - ref) <= 1e-9 + 10 * err


class TestInverseCumulative:
    def test_round_trip(self):
        rate = PowerLawRate(1.1808, 0.1662)
        ts = np.array([0.772, 2.731, 16.58, 50.37])
        back = inverse_cumulative_intensity(rate, cumulative_intensity(rate, ts))
        assert np.allclose(back, ts, rtol=1e-8)

    def test_round_trip_other_direction(self):
        rate = PowerLawRate(0.62, 3.1)
        ws = np.array([1e-6, 0.2, 5.0, 400.0])
        again = cumulative_intensity(rate, inverse_cumulative_intensity(rate, ws))
        assert np.allclose(again, ws, rtol=1e-8)

    def test_zero_and_domain(self):
        rate = PowerLawRate(1.3, 0.4)
        assert inverse_cumulative_intensity(rate, 0.0) == 0.0
        with pytest.raises(ValueError):
            inverse_cumulative_intensity(rate, -1.0)


class TestSurvivalAndDensity:
    def test_survival_anchor(self):
        rate = PowerLawRate(1.0, 1.0)
        assert np.isclose(survival(rate, math.log(2.0)), 0.5, rtol=1e-14)

    def test_survival_monotone(self):
        rate = PowerLawRate(1.9, 0.05)
        ts = np.linspace(0.0, 30.0, 100)
        s = survival(rate, ts)
        assert s[0] == 1.0
        assert np.all(np.diff(s) <= 0)

    def test_density_integrates_to_one(self):
        for alpha, beta in ((1.1808, 0.1662), (0.7, 2.0), (2.5, 0.01)):
            rate = PowerLawRate(alpha, beta)
            total, err = integrate.quad(
                lambda t: event_density(rate, t), 1e-12, np.inf, limit=200
            )
            assert abs(total - 1.0) <= 1e-7 + 10 * err

    def test_density_is_minus_survival_slope(self):
        rate = PowerLawRate(1.42, 0.3)
        for t in (0.4, 2.0, 7.0):
            h = 1e-6 * t
            slope = (survival(rate, t + h) - survival(rate, t - h)) / (2 * h)
            assert np.isclose(event_density(rate, t), -slope, rtol=1e-7)


class TestLogLikelihood:
    def test_single_unit_record(self):
        assert np.isclose(log_likelihood(PowerLawRate(1.0, 1.0), [1.0]), -1.0, rtol=1e-14)

    def test_direct_summation_oracle(self, survey):
        # independent evaluation: product of rate terms times survival
        rate = PowerLawRate(1.3, 0.2)
        pos = survey.as_array()[:3]
        direct = sum(math.log(intensity_at(rate, t)) for t in pos) - cumulative_intensity(
            rate, pos[-1]
        )
        assert np.isclose(log_likelihood(rate, pos), direct, rtol=1e-12)

    def test_accepts_record_sequence(self, survey17, fit17):
        via_seq = log_likelihood(fit17.rate, survey17)
        via_arr = log_likelihood(fit17.rate, survey17.as_array())
        assert via_seq == via_arr

    def test_mle_is_local_maximum(self, survey17, fit17):
        # the fitted pair should beat a 5x5 grid of nearby parameters
        best = log_likelihood(fit17.rate, survey17)
        alpha0 = ORACLE_ALPHA_17
        beta0 = ORACLE_BETA_17
        for da in (-0.02, -0.01, 0.0, 0.01, 0.02):
            for db in (-0.01, -0.005, 0.0, 0.005, 0.01):
                if da == 0.0 and db == 0.0:
                    continue
                other = PowerLawRate(alpha0 + da, beta0 + db)
                assert log_likelihood(other, survey17) < best

    def test_rejects_bad_records(self):
        rate = PowerLawRate(1.0, 1.0)
        with pytest.raises(ValueError):
            log_likelihood(rate, [])
        with pytest.raises(ValueError):
            log_likelihood(rate, [0.0, 1.0])
        with pytest.raises(ValueError):
            log_likelihood(rate, [-2.0])

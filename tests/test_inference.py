import re

import numpy as np
import pytest

from pipecorr import (
    DataValidationError,
    InsufficientDataError,
    NumericError,
    PowerLawRate,
    RecordSequence,
    cumulative_intensity,
    fit_mle,
    log_likelihood,
    sequential_fits,
    simulate_first_m,
)
from conftest import (
    ORACLE_ALPHA_17,
    ORACLE_BETA_17,
    REFERENCE_ALPHA_17,
    REFERENCE_BETA_17,
)


class TestRecordSequence:
    def test_construction_coerces_to_floats(self):
        seq = RecordSequence([1, 2, 3])
        assert seq.positions == (1.0, 2.0, 3.0)
        assert len(seq) == 3

    def test_empty(self):
        with pytest.raises(DataValidationError) as excinfo:
            RecordSequence([])
        assert excinfo.value.code == "empty"

    def test_nonpositive(self):
        with pytest.raises(DataValidationError) as excinfo:
            RecordSequence([1.0, 0.0, 2.0])
        assert excinfo.value.code == "nonpositive"
        assert "1" in str(excinfo.value)

    def test_not_increasing_lists_offenders(self):
        with pytest.raises(DataValidationError) as excinfo:
            RecordSequence([1.0, 3.0, 2.0, 5.0, 5.0])
        assert excinfo.value.code == "non-increasing"
        # both the decrease at index 2 and the tie at index 4 are named
        assert "2" in str(excinfo.value)
        assert "4" in str(excinfo.value)

    @pytest.mark.parametrize(
        "positions, code, row",
        [([1.0, 2.0, 2.0, 1.0], "duplicate", 3), ([1.0, 3.0, 2.0, 2.0], "non-increasing", 3)],
    )
    def test_first_violation_decides_code(self, positions, code, row):
        with pytest.raises(DataValidationError) as excinfo:
            RecordSequence(positions)
        assert excinfo.value.code == code
        assert excinfo.value.row == row
        assert "[2, 3]" in str(excinfo.value)

    def test_nan_rejected(self):
        with pytest.raises(DataValidationError):
            RecordSequence([1.0, float("nan")])

    def test_prefix(self, survey):
        pre = survey.prefix(5)
        assert pre.positions == survey.positions[:5]
        with pytest.raises(ValueError):
            survey.prefix(0)
        with pytest.raises(ValueError):
            survey.prefix(99)


class TestFitMle:
    def test_survey_17(self, fit17):
        assert abs(fit17.rate.alpha - REFERENCE_ALPHA_17) <= 5e-4
        assert abs(fit17.rate.beta - REFERENCE_BETA_17) <= 5e-4
        assert np.isclose(fit17.rate.alpha, ORACLE_ALPHA_17, rtol=1e-12)
        assert np.isclose(fit17.rate.beta, ORACLE_BETA_17, rtol=1e-12)
        assert fit17.m == 17
        assert fit17.r_m == 50.370

    def test_first_two_records(self, survey):
        fitted = fit_mle(survey.prefix(2))
        assert abs(fitted.rate.alpha - 1.5830) <= 5e-4
        assert abs(fitted.rate.beta - 0.4077) <= 5e-4

    def test_cumulative_count_identity(self, survey):
        # beta_hat is defined so the fitted cumulative rate equals m at r_m
        for k in (2, 5, 17, 18):
            fitted = fit_mle(survey.prefix(k))
            assert np.isclose(
                cumulative_intensity(fitted.rate, fitted.r_m), float(k), rtol=1e-12
            )

    def test_log_likelihood_recorded(self, survey17, fit17):
        assert np.isclose(
            fit17.log_likelihood, log_likelihood(fit17.rate, survey17), rtol=1e-14
        )

    def test_fit_beats_perturbations(self, survey17, fit17):
        for factor in (0.95, 0.99, 1.01, 1.05):
            worse = PowerLawRate(fit17.rate.alpha * factor, fit17.rate.beta)
            assert log_likelihood(worse, survey17) < fit17.log_likelihood

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_mle(RecordSequence([3.2]))

    @pytest.mark.filterwarnings("error")
    def test_near_tied_records_raise_numeric_error(self):
        # r2 / r1 = 1.0003 gives alpha_hat near 6000, so beta_hat
        # underflows to 0; the small-scale case overflows it instead
        for positions in ([30.0, 30.01], [1e-5, 1.0001e-5]):
            with pytest.raises(NumericError):
                fit_mle(RecordSequence(positions))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("positions, r_m", [([1e300, 2e300], "2e+300"),
                                                ([1e-300, 2e-300], "2e-300")])
    def test_scale_alone_names_both_causes(self, positions, r_m):
        # the records differ by a factor of 2 (alpha_hat 2.885), but
        # r_m**alpha_hat leaves the float range from scale alone
        with pytest.raises(NumericError, match=r"alpha_hat 2\.885.*r_m %s.*far from 1"
                           % re.escape(r_m)):
            fit_mle(RecordSequence(positions))

    def test_scale_property(self, survey17, fit17):
        # rescaling positions by c leaves alpha_hat unchanged and maps
        # beta_hat to beta_hat / c**alpha_hat
        c = 3.7
        scaled = RecordSequence([c * x for x in survey17.positions])
        refit = fit_mle(scaled)
        assert np.isclose(refit.rate.alpha, fit17.rate.alpha, rtol=1e-12)
        assert np.isclose(
            refit.rate.beta, fit17.rate.beta / c ** fit17.rate.alpha, rtol=1e-10
        )


class TestSequentialFits:
    def test_prefix_alignment(self, survey):
        fits = sequential_fits(survey)
        assert [f.m for f in fits] == list(range(2, 19))
        assert fits[0].r_m == survey.positions[1]
        assert fits[-1].r_m == survey.positions[-1]

    def test_each_matches_direct_fit(self, survey):
        fits = sequential_fits(survey)
        for fitted in fits:
            assert fitted == fit_mle(survey.prefix(fitted.m))

    def test_prefixes_are_not_revalidated(self, survey, validations):
        sequential_fits(survey)
        assert validations == []

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            sequential_fits(RecordSequence([1.0]))


class TestEstimatorBias:
    def test_small_sample_alpha_bias(self):
        # E[alpha_hat] = m alpha / (m - 2); at m = 18, alpha = 1.2 the
        # mean over replicates should sit near 1.35 (the MC run is the
        # oracle, so the band is generous against seed choice)
        rate = PowerLawRate(1.2, 0.17)
        m = 18
        rng_seed = 20240814
        alphas = np.empty(10_000)
        for k in range(alphas.size):
            path = simulate_first_m(rate, m, seed=rng_seed + k)
            alphas[k] = fit_mle(path).rate.alpha
        assert abs(np.mean(alphas) - 1.35) <= 0.02

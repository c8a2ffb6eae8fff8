import numpy as np
import pytest
from scipy import stats

from pipecorr import (
    EstimatorStudy,
    NumericError,
    PowerLawRate,
    PredictionQuery,
    RecordSequence,
    cumulative_intensity,
    estimator_study,
    fit_mle,
    inverse_cumulative_intensity,
    predict_quantile,
    simulate_first_m,
    simulate_records_from_iid,
    time_rescaling_increments,
)


RATE = PowerLawRate(1.2, 0.17)


def count_at(path, t):
    """Oracle: number of simulated events at or before position t."""
    return int(np.searchsorted(path.as_array(), t, side="right"))


class TestDeterminism:
    def test_same_seed_same_path(self):
        a = simulate_first_m(RATE, 10, seed=123)
        b = simulate_first_m(RATE, 10, seed=123)
        assert a.positions == b.positions

    def test_different_seeds_differ(self):
        a = simulate_first_m(RATE, 10, seed=123)
        b = simulate_first_m(RATE, 10, seed=124)
        assert a.positions != b.positions

    def test_generators_use_independent_streams(self):
        a = simulate_first_m(RATE, 10, seed=123)
        b = simulate_records_from_iid(RATE, 10, seed=123)
        assert a.positions != b.positions

    def test_study_deterministic(self):
        s1 = estimator_study(RATE, m=10, n_replicates=50, seed=9)
        s2 = estimator_study(RATE, m=10, n_replicates=50, seed=9)
        assert s1 == s2


class TestPathShape:
    def test_increasing_positive(self):
        path = simulate_first_m(RATE, 200, seed=1)
        pos = path.as_array()
        assert np.all(pos > 0)
        assert np.all(np.diff(pos) > 0)
        assert len(path) == 200

    def test_metadata(self):
        assert simulate_first_m(RATE, 3, seed=77).label == "simulate_first_m seed 77"
        assert simulate_records_from_iid(RATE, 3, seed=7).label == "simulate_records_from_iid seed 7"

    def test_records_constructor(self):
        path = simulate_first_m(RATE, 25, seed=4)
        assert isinstance(path, RecordSequence)
        assert path == RecordSequence(path.positions, label=path.label)
        fitted = fit_mle(path)
        assert fitted.m == 25

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("simulate", [simulate_first_m, simulate_records_from_iid])
    def test_float_tie_is_numeric_error(self, simulate):
        # alpha = 1e17 maps every position to 1.0
        with pytest.raises(NumericError, match="positions 1 and 2 tie in floating point"):
            simulate(PowerLawRate(1e17, 1.0), 5, 1)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            simulate_first_m(RATE, 0, seed=1)


class TestScaleEquivariance:
    def test_rescaled_rate_rescales_positions(self):
        # multiplying positions by c matches simulating at beta / c**alpha
        c = 2.5
        base = simulate_first_m(RATE, 40, seed=31).as_array()
        scaled_rate = PowerLawRate(RATE.alpha, RATE.beta / c ** RATE.alpha)
        scaled = simulate_first_m(scaled_rate, 40, seed=31).as_array()
        assert np.allclose(scaled, c * base, rtol=1e-9)


class TestMarginals:
    def test_first_position_mean_unit_rate(self):
        # at alpha = beta = 1 the first position is Exp(1)
        rate = PowerLawRate(1.0, 1.0)
        draws = np.array(
            [simulate_first_m(rate, 1, seed=s).positions[0] for s in range(100_000)]
        )
        assert abs(np.mean(draws) - 1.0) <= 0.01

    def test_first_position_median_quadratic_rate(self):
        rate = PowerLawRate(2.0, 1.0)
        draws = np.array(
            [simulate_first_m(rate, 1, seed=s).positions[0] for s in range(100_000)]
        )
        # median solves exp(-t^2) = 1/2, i.e. sqrt(log 2)
        assert abs(np.median(draws) - 0.8326) <= 0.01

    def test_first_position_distribution(self):
        draws = np.array(
            [simulate_first_m(RATE, 1, seed=s).positions[0] for s in range(20_000)]
        )
        res = stats.kstest(draws, lambda x: 1.0 - np.exp(-cumulative_intensity(RATE, x)))
        assert res.pvalue > 0.01

    def test_rescaled_increments_are_unit_exponential(self):
        us = []
        for s in range(2000):
            path = simulate_first_m(RATE, 5, seed=s)
            us.append(time_rescaling_increments(RATE, path.as_array()))
        us = np.concatenate(us)
        res = stats.kstest(us, "expon")
        assert res.pvalue > 0.01


class TestRecordEquivalence:
    def test_generators_share_one_law(self):
        # the two public generators must agree in distribution; compare
        # the third-position marginals
        a = np.array([simulate_first_m(RATE, 3, seed=s).positions[2] for s in range(4000)])
        b = np.array(
            [simulate_records_from_iid(RATE, 3, seed=s).positions[2] for s in range(4000)]
        )
        res = stats.ks_2samp(a, b)
        assert res.pvalue > 0.01

    def test_against_naive_record_scan(self):
        # independent oracle: scan genuine i.i.d. draws for upper records
        # (survival exp(-beta t^alpha)); the capped budget truncates with
        # probability ~1e-5, negligible at this level
        rng = np.random.default_rng(99)
        naive = np.empty(2000)
        for i in range(naive.size):
            second = None
            while second is None:
                draws = (-np.log1p(-rng.random(4096)) / RATE.beta) ** (1.0 / RATE.alpha)
                best = -np.inf
                count = 0
                for x in draws:
                    if x > best:
                        best = x
                        count += 1
                        if count == 2:
                            second = x
                            break
            naive[i] = second
        inv = np.array(
            [simulate_records_from_iid(RATE, 2, seed=s).positions[1] for s in range(2000)]
        )
        res = stats.ks_2samp(naive, inv)
        assert res.pvalue > 0.01


class TestCountAt:
    def test_mean_count_matches_cumulative_rate(self):
        # E[N(50)] = Lambda(50); simulate well past the horizon so the
        # truncation at m = 60 events is immaterial
        horizon = 50.0
        target = cumulative_intensity(RATE, horizon)
        counts = np.array(
            [count_at(simulate_first_m(RATE, 60, seed=s), horizon) for s in range(10_000)]
        )
        assert np.all(counts < 60)
        assert abs(np.mean(counts) - target) <= 0.02 * target


def reference_study(rate, m, n_replicates, seed, level=0.95):
    """The estimator study as a replicate-by-replicate loop over public pieces."""
    alphas = np.empty(n_replicates)
    betas = np.empty(n_replicates)
    hits = 0
    tail = (1.0 - level) / 2.0
    for k in range(n_replicates):
        u = np.random.default_rng([seed, 2, k]).random(m + 1)
        pos = inverse_cumulative_intensity(rate, np.cumsum(-np.log1p(-u)))
        fitted = fit_mle(RecordSequence(pos[:m]))
        alphas[k] = fitted.rate.alpha
        betas[k] = fitted.rate.beta
        query = PredictionQuery(fitted=fitted, s=m + 1)
        if predict_quantile(query, tail) <= pos[m] <= predict_quantile(query, 1.0 - tail):
            hits += 1
    with np.errstate(over="ignore"):  # huge betas make beta_std inf, as documented
        return EstimatorStudy(
            m=m,
            n_replicates=n_replicates,
            seed=seed,
            level=level,
            alpha_mean=float(np.mean(alphas)),
            alpha_median=float(np.median(alphas)),
            alpha_std=float(np.std(alphas, ddof=1)),
            alpha_stderr=float(np.std(alphas, ddof=1) / np.sqrt(n_replicates)),
            beta_mean=float(np.mean(betas)),
            beta_median=float(np.median(betas)),
            beta_std=float(np.std(betas, ddof=1)),
            coverage=hits / n_replicates,
        )


class TestEstimatorStudy:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "alpha, beta, m, n_replicates, seed, level",
        [
            (1.2, 0.17, 50, 1000, 1, 0.95),
            (1.2, 0.17, 50, 1000, 2, 0.95),
            (1.2, 0.17, 50, 1000, 3, 0.95),
            (0.5, 3.0, 2, 50, 4, 0.8),
            (2.5, 0.02, 17, 2000, 5, 0.9),
            (0.9, 1.0, 400, 50, 6, 0.5),
        ],
    )
    def test_equals_replicate_loop(self, alpha, beta, m, n_replicates, seed, level):
        rate = PowerLawRate(alpha, beta)
        study = estimator_study(rate, m, n_replicates, seed, level)
        assert study == reference_study(rate, m, n_replicates, seed, level)

    @pytest.mark.filterwarnings("error")
    def test_near_tie_names_first_replicate(self):
        # at m = 2, replicate 412 of seed 1 is the first whose fitted
        # beta overflows; the loop fails there too. The betas before it
        # are too large to square, so beta_std is inf, without a warning.
        rate = PowerLawRate(1.0, 1.0)
        study = estimator_study(rate, 2, 412, 1)
        assert study == reference_study(rate, 2, 412, 1)
        assert study.beta_std == np.inf
        with pytest.raises(NumericError):
            reference_study(rate, 2, 413, 1)
        with pytest.raises(NumericError, match="replicate 412: fitted beta"):
            estimator_study(rate, 2, 413, 1)

    def test_error_names_first_offending_replicate(self):
        # at beta = 1e-308 the fitted beta of replicate 0 overflows and the
        # positions of replicate 1 do; the loop stops at replicate 0 too
        rate = PowerLawRate(5.0, 1e-308)
        with pytest.raises(NumericError, match="fitted beta"):
            reference_study(rate, 2, 2, 0)
        # the message states alpha_hat and r_m, as fit_mle's does
        with pytest.raises(NumericError,
                           match=r"replicate 0: fitted beta .*alpha_hat 5\.098.* r_m 3\.59.*e\+61"):
            estimator_study(rate, 2, 2, 0)

    @pytest.mark.filterwarnings("error")
    def test_unrepresentable_positions_are_numeric_errors(self):
        # alpha = 1e-3 sends (S/beta)**1000 past the float range
        with pytest.raises(NumericError, match="outside the positive float range"):
            estimator_study(PowerLawRate(1e-3, 1.0), 5, 10, 1)
        with pytest.raises(NumericError, match="outside the positive float range"):
            simulate_first_m(PowerLawRate(1e-3, 1.0), 5, 1)
        # alpha = 1e17 maps every position to 1.0: a float tie
        with pytest.raises(NumericError, match="tie"):
            estimator_study(PowerLawRate(1e17, 1.0), 3, 5, 0)

    def test_summary_coherence(self):
        study = estimator_study(RATE, m=20, n_replicates=400, seed=12)
        assert study.m == 20
        assert study.n_replicates == 400
        assert 0.0 <= study.coverage <= 1.0
        assert study.alpha_std > 0
        assert np.isclose(study.alpha_stderr, study.alpha_std / np.sqrt(400), rtol=1e-12)
        assert study.beta_mean > 0
        assert study.level == 0.95

    def test_alpha_centering(self):
        # median is nearly unbiased even where the mean is inflated
        study = estimator_study(RATE, m=30, n_replicates=600, seed=5)
        assert abs(study.alpha_median - RATE.alpha) / RATE.alpha < 0.1

    @pytest.mark.filterwarnings("error")
    def test_validation(self):
        with pytest.raises(ValueError):
            estimator_study(RATE, m=1, n_replicates=10, seed=0)
        with pytest.raises(ValueError):
            estimator_study(RATE, m=5, n_replicates=0, seed=0)
        with pytest.raises(ValueError, match="n_replicates must be at least 2"):
            estimator_study(RATE, m=5, n_replicates=1, seed=0)
        for level in (0.0, 1.0, 1.5, -0.2, float("nan")):
            with pytest.raises(ValueError, match=r"coverage level must be in \(0, 1\)"):
                estimator_study(RATE, m=5, n_replicates=10, seed=0, level=level)
        with pytest.raises(ValueError, match="upper tail"):
            estimator_study(RATE, m=5, n_replicates=10, seed=0, level=0.9999999999999999)

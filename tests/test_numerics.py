import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from pipecorr import NumericError
from pipecorr.numerics import expectation_semi_infinite, fixed_order_expectation


class TestExpectationSemiInfinite:
    def test_constant(self):
        res = expectation_semi_infinite(lambda w: np.ones_like(w), 3.0)
        assert np.isclose(res.value, 1.0, rtol=1e-12)

    def test_first_moment(self):
        for k in (1.0, 2.5, 7.0):
            res = expectation_semi_infinite(lambda w: w, k)
            assert np.isclose(res.value, k, rtol=1e-10)

    def test_scalar_integrand_accepted(self):
        res = expectation_semi_infinite(lambda w: 1.0, 2.0)
        assert np.isclose(res.value, 1.0, rtol=1e-12)

    def test_power_transform_expectation(self):
        # E[(c + w/b)**(1/a)] for the survey-fit constants; frozen from a
        # 50-digit multiprecision quadrature of the same expectation.
        def g(w):
            return (102.3154 + w / 0.1662) ** (1.0 / 1.1808)

        res = expectation_semi_infinite(g, 1.0)
        assert np.isclose(res.value, 52.85902087090984, rtol=1e-9)

    def test_against_adaptive_quadrature(self):
        k = 4.0

        def g(w):
            return np.sqrt(w + 1.0)

        ref, err = integrate.quad(
            lambda w: math.sqrt(w + 1.0) * w ** (k - 1) * math.exp(-w) / math.gamma(k),
            0.0,
            np.inf,
        )
        res = expectation_semi_infinite(g, k)
        assert abs(res.value - ref) <= 1e-8 + 10 * err

    def test_result_fields(self):
        res = expectation_semi_infinite(lambda w: w * w, 2.0)
        assert res.evaluations >= 48  # at least two ladder rungs
        assert res.error_estimate >= 0.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonconvergence_raises_with_diagnostics(self):
        # a wildly oscillatory integrand defeats polynomial quadrature
        def g(w):
            return np.sin(1e6 * w)

        with pytest.raises(NumericError) as excinfo:
            expectation_semi_infinite(g, 1.0)
        assert excinfo.value.last_estimate is not None
        assert excinfo.value.previous_estimate is not None

        # sqrt is not smooth at 0, so the ladder runs out too; the error holds
        # the order-128 and order-256 estimates, about 4.6e-5 apart
        with pytest.raises(NumericError) as excinfo:
            expectation_semi_infinite(np.sqrt, 1.0)
        last, previous = excinfo.value.last_estimate, excinfo.value.previous_estimate
        assert last != previous
        assert "last gap %.3e" % abs(last - previous) in str(excinfo.value)

    def test_domain(self):
        with pytest.raises(ValueError):
            expectation_semi_infinite(lambda w: w, 0.0)


class TestFixedOrderExpectation:
    def test_polynomial_exactness(self):
        # an order-n rule is exact for polynomials of degree <= 2n - 1;
        # gamma moments E[w^j] are rising factorials k (k+1) ... (k+j-1)
        k = 2.5
        n = 6
        for j in range(0, 2 * n):
            moment = fixed_order_expectation(lambda w, j=j: w ** j, k, n)
            exact = 1.0
            for i in range(j):
                exact *= k + i
            assert np.isclose(moment, exact, rtol=1e-11)


    def test_large_shape_against_multiprecision(self):
        # E[sqrt(W)] = Gamma(k + 1/2) / Gamma(k), up to where Gamma(k) is
        # still a float; checks the Gamma(shape) normalization
        mpmath.mp.dps = 40
        for k in (20.0, 150.0, 170.0):
            ref = float(mpmath.gamma(k + 0.5) / mpmath.gamma(k))
            assert np.isclose(fixed_order_expectation(np.sqrt, k, 64), ref, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [171.0, 172.0, 500.0])
    def test_non_finite_rule_is_numeric_error(self, shape):
        # the weights sum past the float range at 171; Gamma(shape)
        # itself overflows from 171.6 on
        with pytest.raises(NumericError, match="shape %r" % shape):
            fixed_order_expectation(lambda w: w, shape, 16)
        with pytest.raises(NumericError, match="shape %r" % shape):
            expectation_semi_infinite(lambda w: w, shape)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_integrand_is_numeric_error(self):
        with pytest.raises(NumericError, match="order 16 is not finite"):
            fixed_order_expectation(lambda w: np.exp(w * 1e3), 2.0, 16)

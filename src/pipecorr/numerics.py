"""Numeric kernels: gamma-family special functions and gamma-weighted
quadrature on the half line.

Everything downstream of the fitted model reduces to integrals of the
form E[g(W)] with W ~ Gamma(k, 1), so the quadrature routine here is
the single place where prediction accuracy is controlled.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import NumericError

__all__ = [
    "QuadratureResult",
    "gamma_quantile",
    "fixed_order_expectation",
    "expectation_semi_infinite",
]

_REL_TOL = 1e-8
_ABS_TOL = 1e-10

# Escalation ladder for expectation_semi_infinite. Generalized
# Gauss-Laguerre converges geometrically for the smooth integrands
# produced by the forecast module, so a short ladder suffices. It stops
# at 256: scipy's order-384 rule overflows at every shape.
_ORDERS = (16, 32, 64, 128, 256)


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature run.

    Attributes
    ----------
    value : float
        The converged estimate.
    error_estimate : float
        Absolute difference between the last two estimates.
    evaluations : int
        Total number of integrand evaluations across all orders tried.
    converged : bool
        Whether the tolerance test was met before the ladder ran out.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def gamma_quantile(k, p):
    """Quantile of Gamma(k, 1): the inverse in x of the regularized P(k, x).

    Accepts p in [0, 1); p = 0 maps to 0.
    """
    if k <= 0:
        raise ValueError("shape must be positive, got %g" % k)
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any((p_arr < 0) | (p_arr >= 1)):
        raise ValueError("gamma_quantile requires 0 <= p < 1")
    out = special.gammaincinv(k, p_arr)
    return float(out[0]) if np.ndim(p) == 0 else out


def fixed_order_expectation(integrand, shape, order):
    """E[g(W)] for W ~ Gamma(shape, 1) by one generalized Gauss-Laguerre rule.

    The weight w^(shape-1) e^(-w) is absorbed by the rule, so the rule of
    order n is exact whenever g is a polynomial of degree <= 2n - 1. The
    node weights are normalized by Gamma(shape) to make the rule an
    expectation rather than a bare integral.

    Float warnings are silenced; a non-finite estimate (Gamma(shape) or the
    weighted sum overflowed) raises ``NumericError`` naming order and shape.
    """
    if shape <= 0:
        raise ValueError("shape must be positive, got %g" % shape)
    with np.errstate(all="ignore"):
        nodes, weights = special.roots_genlaguerre(order, shape - 1.0)
        # A constant integrand may return a scalar; broadcast it over the nodes.
        vals = np.broadcast_to(integrand(nodes), nodes.shape)
        norm = np.exp(special.gammaln(shape))
        value = float(np.sum(weights * vals)) / norm
    if not (math.isfinite(value) and norm < np.inf):
        raise NumericError("gamma-weighted quadrature of order %d is not finite at shape %r"
                           % (order, shape))
    return value


def expectation_semi_infinite(integrand, shape):
    """E[g(W)] for W ~ Gamma(shape, 1), with automatic order escalation.

    Runs ``fixed_order_expectation`` on an increasing ladder of orders
    and stops when two successive estimates agree to a relative 1e-8 or
    an absolute 1e-10, whichever is looser.

    Parameters
    ----------
    integrand : callable
        g, evaluated on an ndarray of nodes; it returns an array of the
        same shape or a constant.
    shape : float
        Gamma shape parameter k > 0.

    Returns
    -------
    QuadratureResult

    Raises
    ------
    NumericError
        If the ladder is exhausted without meeting the tolerance. The
        exception carries the last two estimates.
    """
    previous = None
    evaluations = 0
    for order in _ORDERS:
        estimate = fixed_order_expectation(integrand, shape, order)
        evaluations += order
        if previous is not None:
            gap = abs(estimate - previous)
            if gap <= max(_REL_TOL * abs(estimate), _ABS_TOL):
                return QuadratureResult(
                    value=estimate,
                    error_estimate=gap,
                    evaluations=evaluations,
                    converged=True,
                )
        previous = estimate
    raise NumericError(
        "gamma-weighted quadrature did not converge (last gap %.3e)" % abs(estimate - previous),
        last_estimate=estimate,
        previous_estimate=previous,
    )


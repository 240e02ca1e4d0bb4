"""Special functions underlying the closed-form network formulas.

Everything here is a pure function: the beta function and the one-parameter
family of Gauss hypergeometric functions 2F1(1, b; b+1; z) that the coverage
and secrecy expressions need. ConvergenceError is the error a quadrature
over its error budget raises.
"""

import math

import numpy as np
from scipy import special

__all__ = [
    "ConvergenceError",
    "beta",
    "hyp2f1_1b",
]

class ConvergenceError(RuntimeError):
    """Quadrature did not converge within budget.

    Carries the best available estimate and its error bound so callers can
    still inspect the partial result.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def beta(a, b):
    """Euler beta function B(a, b) for a, b > 0.

    Evaluated through log-gamma so fractional and moderately large arguments
    do not overflow. Symmetric in its arguments.
    """
    if not a > 0 or not b > 0:
        raise ValueError(f"beta requires positive arguments, got a={a}, b={b}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def hyp2f1_1b(b, z):
    """Gauss hypergeometric function 2F1(1, b; b+1; z) for 0 < b <= 1, z <= 0.

    This is the only hypergeometric family the closed forms require; it is
    evaluated by scipy.special.hyp2f1, entry by entry for an array z (a float
    for a scalar z). The result always lies in (0, 1] and increases
    monotonically in z toward 1 at z = 0.
    """
    if not 0 < b <= 1:
        raise ValueError(f"hyp2f1_1b requires 0 < b <= 1, got b={b}")
    if not np.all(np.less_equal(z, 0.0)):
        raise ValueError(f"hyp2f1_1b supports only z <= 0, got z={z}")
    value = special.hyp2f1(1.0, b, b + 1.0, z)
    return float(value) if np.ndim(z) == 0 else value

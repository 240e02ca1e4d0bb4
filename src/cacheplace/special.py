"""Special functions underlying the closed-form network formulas.

Everything here is a pure function: the one-parameter family of Gauss
hypergeometric functions 2F1(1, b; b+1; z) that the coverage and secrecy
expressions need, evaluated with numpy alone; the package imports nothing
from scipy. ConvergenceError is the error a quadrature over its error budget
raises.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "ConvergenceError",
    "hyp2f1_1b",
]

# Terms of the series S(c, w) = 2F1(1, 1; c; w) for c >= 1 and 0 <= w <= 1/2:
# term n is at most w^n, so the tail past 54 terms is at most 2^-53 of S >= 1.
_TERMS = 54


class ConvergenceError(RuntimeError):
    """Quadrature did not converge within budget.

    Carries the best available estimate and its error bound so callers can
    still inspect the partial result.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def hyp2f1_1b(b, z):
    """Gauss hypergeometric function 2F1(1, b; b+1; z) for 0 < b <= 1, z <= 0.

    This is the only hypergeometric family the closed forms require. With
    x = -z and S(c, w) = 2F1(1, 1; c; w) = sum_n n!/(c)_n w^n, the Pfaff and
    z -> 1/z connection formulas (Abramowitz & Stegun 15.3.5, 15.3.7) give

        x <= 1:  S(b+1, w) (1-w) with w = x/(1+x),
        x > 1:   b pi/sin(pi b) x^-b - b/(1-b) S(2-b, w) w with w = 1/(1+x),

    and log1p(x)/x for x > 1 at b = 1; in both branches w is at most 1/2.
    An array z is evaluated entry by entry with the same floating-point
    operations as a scalar z, so every entry equals bit for bit the float a
    scalar call returns. The result always lies in [0, 1], is 0 at z = -inf,
    and increases monotonically in z toward 1 at z = 0.

    Accuracy: the relative error is within 2e-14 for b <= 0.95. For x > 1 the
    two terms cancel as b -> 1, and the error grows like 1e-16 b/(1-b): about
    3e-13 at b = 0.99 and 3e-11 at b = 0.999. b = 1 itself is exact to
    rounding.
    """
    if not 0 < b <= 1:
        raise ValueError(f"hyp2f1_1b requires 0 < b <= 1, got b={b}")
    if not np.all(np.less_equal(z, 0.0)):
        raise ValueError(f"hyp2f1_1b supports only z <= 0, got z={z}")
    if np.ndim(z) == 0:
        x = -float(z)
        if x <= 1.0:
            return float(_near(b, x))
        return float(_far(b, x)) if x < math.inf else 0.0
    x = -np.asarray(z, dtype=float)
    out = np.zeros(x.shape)
    near = x <= 1.0
    far = (x > 1.0) & (x < math.inf)
    out[near] = _near(b, x[near])
    out[far] = _far(b, x[far])
    return out


def _near(b, x):
    # For 0 <= w <= 1/2 the subtraction 1 - w = 1/(1+x) is exact.
    w = x / (1.0 + x)
    return _series(b + 1.0, w) * (1.0 - w)


def _far(b, x):
    if b == 1.0:
        return np.log1p(x) / x
    w = 1.0 / (1.0 + x)
    reflection = b * math.pi / math.sin(math.pi * b)
    return reflection * np.power(x, -b) - (b / (1.0 - b)) * (_series(2.0 - b, w) * w)


def _series(c, w):
    # Horner from the last term down. For a float w the operations are the
    # ones numpy applies to each entry of an array w, in the same order; s
    # starts as a new float or array, so the in-place steps never touch w.
    coefficients = _series_coefficients(c)
    s = w * 0.0 + coefficients[0]
    for coefficient in coefficients[1:]:
        s *= w
        s += coefficient
    return s


@lru_cache(maxsize=64)
def _series_coefficients(c):
    """n!/(c)_n for n = _TERMS - 1 down to 0."""
    coefficients = [1.0]
    for n in range(1, _TERMS):
        coefficients.append(coefficients[-1] * (n / (c + n - 1.0)))
    return tuple(coefficients[::-1])

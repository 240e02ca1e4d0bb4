"""Special functions and quadrature underlying the closed-form network formulas.

Everything here is a pure function: the beta function, the one-parameter
family of Gauss hypergeometric functions 2F1(1, b; b+1; z) that the coverage
and secrecy expressions need, and adaptive quadrature on semi-infinite
intervals.
"""

import math
from dataclasses import dataclass

from scipy import integrate, special

__all__ = [
    "QuadratureConfig",
    "ConvergenceError",
    "beta",
    "hyp2f1_1b",
    "integrate_semi_infinite",
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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for adaptive quadrature."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


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
    evaluated by scipy.special.hyp2f1. The result always lies in (0, 1] and
    increases monotonically in z toward 1 at z = 0.
    """
    if not 0 < b <= 1:
        raise ValueError(f"hyp2f1_1b requires 0 < b <= 1, got b={b}")
    if z > 0:
        raise ValueError(f"hyp2f1_1b supports only z <= 0, got z={z}")
    return float(special.hyp2f1(1.0, b, b + 1.0, z))


def integrate_semi_infinite(f, lower, cfg=None):
    """Integrate f over [lower, inf) with adaptive Gauss-Kronrod quadrature.

    The integrand must be integrable and eventually decay monotonically.
    Deterministic for fixed inputs. Raises ConvergenceError (carrying the
    best estimate and its error bound) if the subdivision budget is exhausted
    before the requested tolerances are met.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    out = integrate.quad(
        f,
        lower,
        math.inf,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3:  # a QUADPACK warning message is present
        if abserr > cfg.abs_tol + cfg.rel_tol * abs(value):
            raise ConvergenceError(
                f"semi-infinite quadrature failed to converge: {out[3]}",
                value,
                abserr,
            )
    return value

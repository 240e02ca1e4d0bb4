"""Closed-form hit and secrecy probabilities for the cache-enabled network.

All formulas work in the interference-limited regime with Rayleigh fading,
a homogeneous PPP of base stations of density lambda, an independent PPP of
eavesdroppers of density lambda_e, and a secrecy guard zone of radius D
around every base station. SIR thresholds are linear here; the CLI converts
from dB exactly once at the boundary.

The exact secrecy probability is the one integral left. Its variable is
v = k pi lam_a (r^2 - D^2) with k = 1 + rate / (pi lam_a), which puts every
file's integrand on the scale exp(theta(v) - v) on [0, inf), so one
vector-valued adaptive quadrature serves all files at once.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import integrate

from .special import ConvergenceError, hyp2f1_1b

# Tolerances of the exact-secrecy quadrature, in the max norm over files.
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200

__all__ = [
    "NetworkParams",
    "DerivedConstants",
    "db_to_linear",
    "derive_constants",
    "conditional_hit_probability",
    "hit_probability",
    "secrecy_probability_exact",
    "secrecy_probability_lower_bound",
    "placement_cap",
]


def db_to_linear(value_db):
    """Convert a dB quantity to linear scale."""
    return 10.0 ** (value_db / 10.0)


@dataclass(frozen=True)
class NetworkParams:
    """Physical and stochastic network parameters.

    bs_density and eaves_density are per square meter, guard_radius is in
    meters, gamma_u / gamma_e are linear SIR thresholds. Transmit power
    cancels in every SIR, so it is not a parameter.
    """

    bs_density: float
    eaves_density: float
    alpha: float
    guard_radius: float
    gamma_u: float
    gamma_e: float

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha > 2:
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if not self.bs_density > 0:
            raise ValueError(f"bs_density must be positive, got {self.bs_density}")
        if self.eaves_density < 0:
            raise ValueError(
                f"eaves_density must be >= 0, got {self.eaves_density}"
            )
        if self.guard_radius < 0:
            raise ValueError(f"guard_radius must be >= 0, got {self.guard_radius}")
        if not self.gamma_u > 0 or not self.gamma_e > 0:
            raise ValueError("SIR thresholds must be positive")

    @property
    def delta(self):
        return 2.0 / self.alpha

    @classmethod
    def with_db_thresholds(
        cls, bs_density, eaves_density, alpha, guard_radius,
        gamma_u_db, gamma_e_db,
    ):
        """Construct from SIR thresholds quoted in dB."""
        return cls(
            bs_density=bs_density,
            eaves_density=eaves_density,
            alpha=alpha,
            guard_radius=guard_radius,
            gamma_u=db_to_linear(gamma_u_db),
            gamma_e=db_to_linear(gamma_e_db),
        )


@dataclass(frozen=True)
class DerivedConstants:
    """Threshold-dependent constants entering every closed form.

    delta = 2/alpha; kappa1 and kappa2 are the interference exponents from
    the whole-plane and outside-disk Laplace transforms; tau1 = 1 + kappa2 -
    kappa1 and tau2 = kappa1 * exp(pi * lambda_e * D^2) combine them with the
    guard-zone thinning. gamma records the linear threshold they were
    evaluated at.
    """

    delta: float
    kappa1: float
    kappa2: float
    tau1: float
    tau2: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.kappa1 > 0 or not self.kappa2 > 0:
            raise ValueError("kappa1 and kappa2 must be positive")
        if self.tau2 < self.kappa1 * (1 - 1e-12):
            raise ValueError("tau2 must be >= kappa1")
        if self.tau1 + self.tau2 < 1 - 1e-12:
            raise ValueError("tau1 + tau2 must be >= 1")


def derive_constants(params, gamma):
    """Evaluate delta, kappa1, kappa2, tau1, tau2 at the linear threshold gamma."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    delta = params.delta
    # delta gamma^delta B(1 - delta, delta), with B(1 - delta, delta) =
    # pi / sin(pi delta) by Euler's reflection formula.
    kappa1 = delta * gamma**delta * math.pi / math.sin(math.pi * (1.0 - delta))
    kappa2 = (delta * gamma / (1.0 - delta)) * hyp2f1_1b(1.0 - delta, -gamma)
    tau1 = 1.0 + kappa2 - kappa1
    exponent = math.pi * params.eaves_density * params.guard_radius**2
    try:
        tau2 = kappa1 * math.exp(exponent)
        if tau2 == math.inf:
            raise OverflowError
    except OverflowError:
        raise ValueError(
            f"tau2 = kappa1 * exp(pi * eaves_density * guard_radius^2) overflows "
            f"at pi * eaves_density * guard_radius^2 = {exponent:.6g}"
        ) from None
    return DerivedConstants(
        delta=delta, kappa1=kappa1, kappa2=kappa2, tau1=tau1, tau2=tau2, gamma=gamma
    )


def conditional_hit_probability(p, params):
    """Hit probability of a file cached with probability p (scalar or array).

    Equals p / (tau1 * p + tau2) with the constants evaluated at the user
    threshold; zero at p = 0 and concave increasing in p.
    """
    p = _unit_interval(p, "p_i")
    c = derive_constants(params, params.gamma_u)
    return _like(p, p / (c.tau1 * p + c.tau2))


def hit_probability(policy, catalog, params):
    """Average hit probability of a placement: sum_i q_i * p_i/(tau1 p_i + tau2)."""
    if len(policy.p) != catalog.file_count:
        raise ValueError(
            f"policy length {len(policy.p)} does not match catalog size "
            f"{catalog.file_count}"
        )
    hits = conditional_hit_probability(policy.p, params)
    return float(np.dot(catalog.popularity, hits))


def secrecy_probability_lower_bound(p, params):
    """Closed-form lower bound on the file secrecy probability (scalar or array).

    1 - exp(-pi D^2 kappa1(gamma_e) lambda) / (tau1(gamma_e) + tau2(gamma_e)/p).
    Strictly decreasing in p, with its limit 1 at p = 0 (tau2 / 0 = inf): a
    file that is never cached cannot leak.
    """
    p = _unit_interval(p, "p_i")
    c = derive_constants(params, params.gamma_e)
    numerator = math.exp(
        -math.pi * params.guard_radius**2 * c.kappa1 * params.bs_density
    )
    with np.errstate(divide="ignore"):
        return _like(p, 1.0 - numerator / (c.tau1 + c.tau2 / p))


def secrecy_probability_exact(p, params):
    """Exact file secrecy probability via numerical integration (scalar or array).

    One minus the probability that the eavesdropper's SIR reaches gamma_e,
    integrated over the wiretapped-transmitter distance r > D against the
    nearest-transmitter density 2 pi lam_a r exp(-pi lam_a (r^2 - D^2)), where
    lam_a = p lambda exp(-lambda_e pi D^2) is the density of active
    transmitters. In v = k pi lam_a (r^2 - D^2) that is
    exp(-rate D^2) / k * int_0^inf exp(theta(v) - v) dv, theta being the
    guard-zone 2F1 term; every entry with p > 0 is integrated by one
    quad_vec call, which raises ConvergenceError past its error budget.
    1 at p = 0.
    """
    p = _unit_interval(p, "p_i")
    c = derive_constants(params, params.gamma_e)
    out = np.ones(p.shape)
    cached = p > 0.0
    if not np.any(cached):
        return _like(p, out)
    lam = params.bs_density
    d2 = params.guard_radius**2
    lam_a = p[cached] * lam * math.exp(-params.eaves_density * math.pi * d2)
    # Interference from non-caching BSs, muted caching BSs and active ones.
    rate = math.pi * ((lam - lam_a) * c.kappa1 + lam_a * c.kappa2)
    k = 1.0 + rate / (math.pi * lam_a)
    half_alpha = params.alpha / 2.0

    def integrand(v):
        theta = np.zeros_like(lam_a)
        if d2 > 0.0:
            r2 = d2 + v / (k * math.pi * lam_a)
            z = -((d2 / r2) ** half_alpha) / params.gamma_e
            theta = -math.pi * lam_a * d2 * hyp2f1_1b(c.delta, z)
        return np.exp(theta - v)

    value, abserr, info = integrate.quad_vec(
        integrand, 0.0, math.inf, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL,
        limit=_QUAD_LIMIT, norm="max", full_output=True,
    )
    out[cached] = np.clip(1.0 - value * np.exp(-rate * d2) / k, 0.0, 1.0)
    if info.status != 0:
        raise ConvergenceError(
            f"secrecy quadrature failed to converge: {info.message}",
            _like(p, out),
            abserr,
        )
    return _like(p, out)


def placement_cap(eps, params):
    """Largest caching probability compatible with a secrecy level eps.

    Inverts the secrecy lower bound: the cap is min(1, tau2 (1 - eps) /
    [exp(-pi D^2 kappa1 lambda) - tau1 (1 - eps)]^+), where a clamped-to-zero
    denominator means the constraint never binds and the cap is 1. Accepts a
    scalar level or an array of levels.
    """
    eps = _unit_interval(eps, "eps_i")
    c = derive_constants(params, params.gamma_e)
    numerator = c.tau2 * (1.0 - eps)
    denominator = (
        math.exp(-math.pi * params.guard_radius**2 * c.kappa1 * params.bs_density)
        - c.tau1 * (1.0 - eps)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.where(
            denominator > 0.0, np.minimum(1.0, numerator / denominator), 1.0
        )
    return _like(eps, np.where(numerator == 0.0, 0.0, cap))


def _unit_interval(x, name):
    """x as a float array, checked to lie in [0, 1] (which also rejects NaN)."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


def _like(x, value):
    """value as a Python float when x is a scalar, else as an array."""
    return float(value) if np.ndim(x) == 0 else value

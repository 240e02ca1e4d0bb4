"""Closed-form hit and secrecy probabilities for the cache-enabled network.

All formulas work in the interference-limited regime with Rayleigh fading,
a homogeneous PPP of base stations of density lambda, an independent PPP of
eavesdroppers of density lambda_e, and a secrecy guard zone of radius D
around every base station. SIR thresholds are linear here; the CLI converts
from dB exactly once at the boundary.

The exact secrecy probability is the one integral left. Its variable is
v = k pi lam_a (r^2 - D^2) with k = 1 + rate / (pi lam_a), which puts every
file's integrand on the scale exp(theta(v) - v) on [0, inf), so one fixed
double-exponential rule serves all files at once.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .special import ConvergenceError, hyp2f1_1b

# The exact-secrecy rule: the exp-sinh substitution v = exp(pi/2 sinh t)
# (Takahasi & Mori, Publ. RIMS 9, 1974) and a trapezoid in t at step 1/16 on
# [-4, 1.5625]. The lower end must reach v < e^-35, where the dropped part of
# the integral is below rounding; at the upper end exp(-v) < 3e-16. The
# even-indexed nodes form the same rule at step 1/8, and the largest gap
# between the two sums over files must stay within the error budget.
_DE_T = np.arange(-64, 26) / 16.0
_DE_NODES = np.exp(0.5 * math.pi * np.sinh(_DE_T))
_DE_WEIGHTS = (0.5 * math.pi / 16.0) * np.cosh(_DE_T) * _DE_NODES
_DE_ERROR_BUDGET = 1e-8
# Files per evaluation block, which bounds the (files, nodes) temporaries.
_DE_BLOCK = 1024

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


@dataclass(frozen=True)
class DerivedConstants:
    """Threshold-dependent constants entering every closed form.

    delta = 2/alpha; kappa1 and kappa2 are the interference exponents from
    the whole-plane and outside-disk Laplace transforms; tau1 = 1 + kappa2 -
    kappa1 and tau2 = kappa1 * exp(pi * lambda_e * D^2) combine them with the
    guard-zone thinning. leak = exp(-pi D^2 kappa1 lambda) is the leak term
    of the secrecy lower bound and of its inverse, the placement cap.
    """

    delta: float
    kappa1: float
    kappa2: float
    tau1: float
    tau2: float
    leak: float

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
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    delta = params.delta
    # delta gamma^delta B(1 - delta, delta), with B(1 - delta, delta) =
    # pi / sin(pi delta) by Euler's reflection formula.
    kappa1 = delta * gamma**delta * math.pi / math.sin(math.pi * (1.0 - delta))
    kappa2 = kappa2_at(delta, gamma)
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
    leak = math.exp(-math.pi * params.guard_radius**2 * kappa1 * params.bs_density)
    return DerivedConstants(
        delta=delta, kappa1=kappa1, kappa2=kappa2, tau1=tau1, tau2=tau2, leak=leak
    )


def kappa2_at(delta, theta):
    """kappa2 = delta theta / (1 - delta) 2F1(1, 1 - delta; 2 - delta; -theta).

    A PPP of density lam outside radius rho leaves a server at r_s <= rho
    the mean Rayleigh success factor exp(-pi lam rho^2 kappa2) at theta =
    gamma (r_s / rho)^alpha, a scalar or an array.
    """
    return (delta * theta / (1.0 - delta)) * hyp2f1_1b(1.0 - delta, -theta)


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
    file that is never cached cannot leak. Where tau2 / p overflows near the
    tau2 limit, the same limit 1 is exact to rounding.
    """
    p = _unit_interval(p, "p_i")
    c = derive_constants(params, params.gamma_e)
    with np.errstate(divide="ignore", over="ignore"):
        return _like(p, 1.0 - c.leak / (c.tau1 + c.tau2 / p))


def secrecy_probability_exact(p, params):
    """Exact file secrecy probability via numerical integration (scalar or array).

    One minus the probability that the eavesdropper's SIR reaches gamma_e,
    integrated over the wiretapped-transmitter distance r > D against the
    nearest-transmitter density 2 pi lam_a r exp(-pi lam_a (r^2 - D^2)), where
    lam_a = p lambda exp(-lambda_e pi D^2) is the density of active
    transmitters. In v = k pi lam_a (r^2 - D^2) that is
    exp(-rate D^2) / k * int_0^inf exp(theta(v) - v) dv, theta being the
    guard-zone 2F1 term. Every entry with lam_a > 0 is integrated by the same
    fixed exp-sinh rule, entry by entry, so an array gives bit for bit the
    values of scalar calls. ConvergenceError is raised when the rule's error
    estimate, its gap to the rule at twice the step, exceeds the budget.
    1 where lam_a is 0: at p = 0, and where lam_a underflows near the tau2
    limit. There, and where k overflows, 1 is exact to rounding, because the
    leak is of order pi lam_a / rate.
    """
    p = _unit_interval(p, "p_i")
    c = derive_constants(params, params.gamma_e)
    lam = params.bs_density
    d2 = params.guard_radius**2
    active = p * lam * math.exp(-params.eaves_density * math.pi * d2)
    out = np.ones(p.shape)
    cached = active > 0.0
    lam_a = active[cached]
    # Interference from non-caching BSs, muted caching BSs and active ones.
    rate = math.pi * ((lam - lam_a) * c.kappa1 + lam_a * c.kappa2)
    with np.errstate(over="ignore"):
        k = 1.0 + rate / (math.pi * lam_a)
    half_alpha = params.alpha / 2.0
    fine = np.empty(lam_a.shape)
    coarse = np.empty(lam_a.shape)
    for start in range(0, lam_a.size, _DE_BLOCK):
        rows = slice(start, start + _DE_BLOCK)
        lam_b = lam_a[rows, None]
        r2 = d2 + _DE_NODES / (k[rows, None] * math.pi * lam_b)
        z = -((d2 / r2) ** half_alpha) / params.gamma_e
        theta = -math.pi * lam_b * d2 * hyp2f1_1b(c.delta, z)
        # One row per file, summed along its own row: a file's value does not
        # depend on the other files in the call.
        terms = np.exp(theta - _DE_NODES) * _DE_WEIGHTS
        fine[rows] = terms.sum(axis=-1)
        coarse[rows] = 2.0 * terms[:, ::2].sum(axis=-1)
    out[cached] = np.clip(1.0 - fine * np.exp(-rate * d2) / k, 0.0, 1.0)
    abserr = float(np.max(np.abs(fine - coarse), initial=0.0))
    if not abserr <= _DE_ERROR_BUDGET:
        raise ConvergenceError(
            f"secrecy quadrature error estimate {abserr:.3g} exceeds its "
            f"budget {_DE_ERROR_BUDGET:g}",
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
    denominator = c.leak - c.tau1 * (1.0 - eps)
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

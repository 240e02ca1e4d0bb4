"""Optimal and baseline content placement under per-file secrecy caps.

The hit-probability objective is concave in each caching probability, the
secrecy constraints reduce to per-file upper caps, and the storage budget
couples the files. The global optimum is a water-filling solution whose
water level (the budget's dual variable) is solved exactly from the sorted
breakpoints of the clipped budget sum; MPC (most popular first) and LCC
(lowest secrecy level first) are greedy baselines.
"""

from dataclasses import dataclass

import numpy as np

from .analytic import derive_constants, hit_probability, placement_cap
from .catalog import PlacementPolicy

__all__ = [
    "OcpSolution",
    "placement_caps",
    "solve_ocp",
    "water_filling_dual",
    "mpc_placement",
    "lcc_placement",
]


@dataclass(frozen=True)
class OcpSolution:
    """Optimal placement with its KKT certificate.

    active_set classifies each file as "capped" (at its secrecy cap),
    "interior" (marginal value equals the dual), or "zero".
    """

    policy: PlacementPolicy
    dual: float
    active_set: tuple
    objective: float
    caps: np.ndarray


def placement_caps(catalog, params):
    """Per-file caching caps implied by the secrecy levels."""
    return placement_cap(catalog.secrecy_levels, params)


def _unconstrained_levels(q, tau1, tau2, nu):
    """Stationary points p_i = (sqrt(tau2/nu) sqrt(q_i) - tau2) / tau1."""
    return (np.sqrt(tau2 / nu) * np.sqrt(q) - tau2) / tau1


def _clipped_total(q, tau1, tau2, caps, nu):
    return float(np.clip(_unconstrained_levels(q, tau1, tau2, nu), 0.0, caps).sum())


def water_filling_dual(catalog, params, caps):
    """Dual variable nu* at which the clipped water-filling sum equals C.

    Requires sum(caps) > C. The clipped sum S(nu) is non-increasing, and
    piecewise of the form a / sqrt(nu) - b between the 2F breakpoints where
    a file enters (nu = q_i / tau2) or saturates at its cap
    (nu = tau2 q_i / (tau1 cap_i + tau2)^2). A binary search over the sorted
    breakpoints, evaluating S exactly as solve_ocp builds the placement,
    finds the segment containing C; on it the interior set is fixed and the
    budget equation solves for nu in closed form (Palomar & Fonollosa, IEEE
    TSP 2005). A segment with no interior file has S constant, so any point
    of it is optimal: a breakpoint where S already equals C, else the
    segment's midpoint.
    """
    caps = np.asarray(caps, float)
    q = catalog.popularity
    budget = float(catalog.cache_size)
    if caps.sum() <= budget:
        raise ValueError("water_filling_dual requires sum(caps) > C")
    c = derive_constants(params, params.gamma_u)
    tau1, tau2 = c.tau1, c.tau2

    enter = q / tau2
    saturate = tau2 * q / (tau1 * caps + tau2) ** 2
    points = np.sort(np.concatenate((saturate, enter)))
    # S(points[0]) = sum(caps) > C and S(points[-1]) = 0 < C.
    lo, hi = 0, len(points) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _clipped_total(q, tau1, tau2, caps, points[mid]) >= budget:
            lo = mid
        else:
            hi = mid
    nu_lo, nu_hi = points[lo], points[hi]
    if _clipped_total(q, tau1, tau2, caps, nu_lo) == budget:
        return float(nu_lo)
    interior = (saturate <= nu_lo) & (enter >= nu_hi)
    if not interior.any():
        return float(0.5 * (nu_lo + nu_hi))
    remaining = budget - float(caps[saturate >= nu_hi].sum())
    root_sum = float(np.sqrt(q[interior]).sum())
    k = int(interior.sum())
    return tau2 * (root_sum / (remaining * tau1 + k * tau2)) ** 2


def solve_ocp(catalog, params, caps=None):
    """Globally optimal placement maximizing hit probability.

    If the caps alone fit the budget the caps are optimal and the dual is
    zero; otherwise the budget is active and the water-filling solution at
    the exact dual variable applies.
    """
    if caps is None:
        caps = placement_caps(catalog, params)
    caps = np.asarray(caps, float)
    q = catalog.popularity
    budget = float(catalog.cache_size)

    if caps.sum() <= budget:
        p = caps.copy()
        nu = 0.0
        active = tuple("zero" if x == 0.0 else "capped" for x in p)
    else:
        nu = water_filling_dual(catalog, params, caps)
        c = derive_constants(params, params.gamma_u)
        levels = _unconstrained_levels(q, c.tau1, c.tau2, nu)
        p = np.clip(levels, 0.0, caps)
        active = tuple(
            "capped" if lv >= cap else ("zero" if lv <= 0.0 else "interior")
            for lv, cap in zip(levels, caps)
        )
    policy = PlacementPolicy(p, catalog.cache_size)
    return OcpSolution(
        policy=policy,
        dual=nu,
        active_set=active,
        objective=hit_probability(policy, catalog, params),
        caps=caps,
    )


def _greedy_fill(order, caps, budget):
    p = np.zeros(len(caps))
    remaining = float(budget)
    for idx in order:
        if remaining <= 0:
            break
        take = min(1.0, float(caps[idx]), remaining)
        p[idx] = take
        remaining -= take
    return p


def mpc_placement(catalog, params, caps=None):
    """Most-popular-contents baseline: greedy fill in descending popularity.

    Ties break toward the lower file index. Each file is capped by its
    secrecy cap, so the result is always secrecy-feasible.
    """
    if caps is None:
        caps = placement_caps(catalog, params)
    order = np.lexsort((np.arange(catalog.file_count), -catalog.popularity))
    return PlacementPolicy(
        _greedy_fill(order, caps, catalog.cache_size), catalog.cache_size
    )


def lcc_placement(catalog, params, caps=None):
    """Least-classified-contents baseline: greedy fill in ascending secrecy level.

    Same greedy rule as MPC with the visit order keyed on the secrecy levels,
    ties toward the lower file index.
    """
    if caps is None:
        caps = placement_caps(catalog, params)
    order = np.lexsort((np.arange(catalog.file_count), catalog.secrecy_levels))
    return PlacementPolicy(
        _greedy_fill(order, caps, catalog.cache_size), catalog.cache_size
    )

"""Optimal and baseline content placement under per-file secrecy caps.

The hit-probability objective is concave in each caching probability, the
secrecy constraints reduce to per-file upper caps (each placement computes
them from the catalog's secrecy levels), and the storage budget couples the
files. The global optimum is a water-filling solution whose water level
(the budget's dual variable) is solved exactly from the sorted breakpoints
of the clipped budget sum; MPC (most popular first) and LCC (lowest secrecy
level first) are greedy baselines.
"""

from dataclasses import dataclass

import numpy as np

from .analytic import derive_constants, hit_probability, placement_cap
from .catalog import PlacementPolicy

__all__ = [
    "OcpSolution",
    "solve_ocp",
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


_STATES = np.array(["zero", "capped", "interior"], dtype=object)


def _argsort(key):
    """np.argsort(key, kind="stable"), sorting stably only when keys tie.

    Distinct keys have one sorted order, which the default sort finds
    several times faster; only an equal neighbour in it needs the stable sort.
    """
    order = np.argsort(key)
    ordered = key[order]
    if np.any(ordered[1:] == ordered[:-1]):
        order = np.argsort(key, kind="stable")
    return order


def _water_fill(catalog, params, caps):
    """(nu, p, capped, interior) of the budget-binding water-filling.

    Needs sum(caps) > C. capped and interior mask the files at their cap and
    those on the water level.

    Only ratio = tau2 / tau1 enters the optimum, so the search runs on the
    level mu = nu * tau2 that each marginal value q_i / (1 + p_i / ratio)^2
    meets. The clipped sum S(mu) is non-increasing, and a / sqrt(mu) - b
    between the 2F breakpoints where a file enters (mu = q_i) or saturates
    at its cap (mu = q_i / (1 + cap_i / ratio)^2 <= q_i). A binary search
    over the sorted breakpoints finds the segment containing C; on it the
    interior set is fixed and the budget equation solves for mu in closed
    form (Palomar & Fonollosa, IEEE TSP 2005). A segment with no interior
    file has S constant, so any point of it is optimal: its midpoint.

    S(mu) at each breakpoint is taken relative to that breakpoint's file,
    and the interior placement from differences of sqrt(q), so neither
    cancels when ratio is huge; ranks give the file sets, so tied
    breakpoints still partition them. Past ~2^53 F nothing depends on
    ratio, so it is capped at 1e100, where no product with it overflows.
    """
    q = catalog.popularity
    budget = float(catalog.cache_size)
    c = derive_constants(params, params.gamma_u)
    ratio = min(c.tau2 / c.tau1, 1e100)
    file_count = len(q)
    root = np.sqrt(q)

    points = np.concatenate((q / (1.0 + caps / ratio) ** 2, q))
    # Ties to the lower index: each file's saturation point sorts before its
    # entry point.
    order = _argsort(points)
    rank = np.empty_like(order)
    rank[order] = np.arange(2 * file_count)
    levels, gaps = np.empty((2, file_count))

    def total_at(j):
        # level_f * root / root[f] + ratio * ((root - root[f]) / root[f]),
        # clipped to [0, caps], in two rows that every call reuses.
        f = order[j] % file_count
        level_f = caps[f] if order[j] < file_count else 0.0
        np.divide(np.multiply(level_f, root, out=levels), root[f], out=levels)
        np.divide(np.subtract(root, root[f], out=gaps), root[f], out=gaps)
        np.add(levels, np.multiply(ratio, gaps, out=gaps), out=levels)
        return float(np.clip(levels, 0.0, caps, out=levels).sum())

    # S is sum(caps) > C at the smallest breakpoint and 0 < C at the largest.
    lo, hi = 0, 2 * file_count - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total_at(mid) >= budget:
            lo = mid
        else:
            hi = mid
    capped = rank[:file_count] >= hi
    interior = ~capped & (rank[file_count:] >= hi)
    p = np.where(capped, caps, 0.0)
    k = int(interior.sum())
    if k == 0:  # S is constant on the segment, so any mu in it is optimal
        mu = float(0.5 * (points[order[lo]] + points[order[hi]]))
    else:
        remaining = budget - float(caps[capped].sum())
        root_in = root[interior]
        root_sum = float(root_in.sum())
        mu = (root_sum / (remaining / ratio + k)) ** 2
        # p_i = R / k + (R + k ratio) (r_i - mean r) / sum r sums to R;
        # r_i - mean r is taken from differences to one interior root.
        dev = root_in - root_in[0]
        spread = (remaining + k * ratio) * (dev - dev.mean()) / root_sum
        p[interior] = np.clip(remaining / k + spread, 0.0, caps[interior])
    return mu / c.tau2, p, capped, interior


def solve_ocp(catalog, params):
    """Globally optimal placement maximizing hit probability.

    If the secrecy caps alone fit the budget the caps are optimal and the
    dual is zero; otherwise the budget is active and the water-filling
    solution at the exact dual variable applies, with the interior files
    filling exactly the budget the capped files leave.
    """
    caps = placement_cap(catalog.secrecy_levels, params)
    if caps.sum() <= catalog.cache_size:
        nu, p, capped = 0.0, caps.copy(), caps != 0.0
        interior = np.zeros_like(capped)
    else:
        nu, p, capped, interior = _water_fill(catalog, params, caps)
    policy = PlacementPolicy(p, catalog.cache_size)
    return OcpSolution(
        policy=policy,
        dual=nu,
        active_set=tuple(_STATES[capped + 2 * interior].tolist()),
        objective=hit_probability(policy, catalog, params),
        caps=caps,
    )


def _greedy_fill(order, caps, budget):
    """Each file in order takes min(cap, budget left), until none is left."""
    ordered = caps[order]
    left = np.subtract.accumulate(np.concatenate(([float(budget)], ordered)))
    p = np.zeros(len(caps))
    p[order] = np.maximum(np.minimum(ordered, left[:-1]), 0.0)
    return p


def _greedy_placement(catalog, params, key):
    """Greedy fill to the secrecy caps in ascending key, ties to the lower index."""
    caps = placement_cap(catalog.secrecy_levels, params)
    p = _greedy_fill(_argsort(key), caps, catalog.cache_size)
    return PlacementPolicy(p, catalog.cache_size)


def mpc_placement(catalog, params):
    """Most-popular-contents baseline: greedy fill in descending popularity.

    Ties break toward the lower file index. Each file is capped by its
    secrecy cap, so the result is always secrecy-feasible.
    """
    return _greedy_placement(catalog, params, -catalog.popularity)


def lcc_placement(catalog, params):
    """Least-classified-contents baseline: greedy fill in ascending secrecy level.

    Same greedy rule as MPC with the visit order keyed on the secrecy levels,
    ties toward the lower file index.
    """
    return _greedy_placement(catalog, params, catalog.secrecy_levels)

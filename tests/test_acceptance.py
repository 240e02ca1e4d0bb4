"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of failures) and then asserts the criterion at its stated
tolerance. Tolerances and parameter grids are part of the contract and must
not be loosened to make a criterion pass.
"""

import json
import math

import numpy as np
import pytest
from scipy import integrate

from cacheplace.analytic import (
    NetworkParams,
    conditional_hit_probability,
    db_to_linear,
    derive_constants,
    placement_cap,
    secrecy_probability_exact,
    secrecy_probability_lower_bound,
)
from cacheplace.catalog import (
    FileCatalog,
    make_catalog,
    sample_secrecy_levels,
)
from cacheplace.cli import main
from cacheplace.optimizer import lcc_placement, mpc_placement, solve_ocp
from cacheplace.simulator import SimConfig, simulate_file_hit, simulate_file_secrecy
from cacheplace.special import hyp2f1_1b

BS_DENSITY = 1.0 / 800.0**2
TRIALS = 100_000


def reference_params(**overrides):
    """Default experiment parameters used in every criterion."""
    kwargs = dict(
        bs_density=BS_DENSITY,
        eaves_density=BS_DENSITY / 5.0,
        alpha=3.0,
        guard_radius=200.0,
        gamma_u=db_to_linear(-5.0),
        gamma_e=db_to_linear(-7.0),
    )
    kwargs.update(overrides)
    return NetworkParams(**kwargs)


def report(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {title}{suffix}")


def test_criterion_1_hit_probability_matches_simulation():
    """Per-file closed-form hit probability vs Monte Carlo at 1e5 trials."""
    params = reference_params()
    worst = 0.0
    ok = True
    for k, p in enumerate([0.2, 0.5, 1.0]):
        analytic = conditional_hit_probability(p, params)
        cfg = SimConfig(trials=TRIALS, seed=100 + k)
        for est in simulate_file_hit([p] * 10, params, cfg):
            gap = abs(analytic - est.estimate)
            worst = max(worst, gap)
            if gap > max(est.ci95_halfwidth, 0.01):
                ok = False
    report(1, "analytic-simulation hit agreement", ok, f"worst gap {worst:.4f}")
    assert ok


def test_criterion_2_secrecy_bound_validity_and_tightness():
    """Lower bound below the exact value everywhere; bound near Monte Carlo."""
    params = reference_params()
    grid = [round(0.1 * k, 1) for k in range(1, 11)]
    ordering_ok = all(
        secrecy_probability_lower_bound(p, params)
        <= secrecy_probability_exact(p, params) + 1e-12
        for p in grid
    )
    tight_ok = True
    worst = 0.0
    details = []
    for k, p in enumerate(grid):
        if p < 0.3:
            continue
        cfg = SimConfig(trials=TRIALS, seed=200 + k)
        (est,) = simulate_file_secrecy([p], params, cfg)
        gap = abs(secrecy_probability_lower_bound(p, params) - est.estimate)
        worst = max(worst, gap)
        if gap > max(est.ci95_halfwidth, 0.015):
            tight_ok = False
            details.append(f"p={p:g} gap={gap:.4f}")
    ok = ordering_ok and tight_ok
    report(
        2,
        "secrecy bound validity and tightness",
        ok,
        f"ordering={'ok' if ordering_ok else 'violated'}, worst bound gap "
        f"{worst:.4f}" + (f"; over tolerance at {', '.join(details)}" if details else ""),
    )
    assert ordering_ok
    assert tight_ok


def test_criterion_3_classical_coverage_cross_check():
    """Single cached file, no eavesdroppers, alpha=4, gamma_u=1."""
    params = reference_params(
        alpha=4.0, eaves_density=0.0, guard_radius=0.0, gamma_u=1.0
    )
    expected = 1.0 / (1.0 + math.pi / 4.0)
    analytic = conditional_hit_probability(1.0, params)
    analytic_ok = abs(analytic - expected) <= 1e-10
    # The always-cached file rides with a never-cached one, p = (1, 0).
    est = simulate_file_hit([1.0, 0.0], params, SimConfig(trials=TRIALS, seed=300))[0]
    sim_ok = abs(est.estimate - expected) <= est.ci95_halfwidth
    ok = analytic_ok and sim_ok
    report(
        3,
        "classical coverage cross-check 1/(1+pi/4)",
        ok,
        f"analytic gap {abs(analytic - expected):.2e}, "
        f"sim gap {abs(est.estimate - expected):.4f} vs ci {est.ci95_halfwidth:.4f}",
    )
    assert ok


def _grid_search(catalog, params, caps, step=0.005):
    c = derive_constants(params, params.gamma_u)
    q = catalog.popularity
    budget = catalog.cache_size
    axes = [np.arange(0.0, caps[i] + 1e-12, step) for i in range(3)]
    g0, g1, g2 = np.meshgrid(*axes, indexing="ij")
    p3 = np.clip(budget - g0 - g1 - g2, 0.0, caps[3])
    feasible = g0 + g1 + g2 + p3 <= budget + 1e-9

    def cond_hit(p):
        return np.where(p > 0, p / (c.tau1 * p + c.tau2), 0.0)

    objective = (
        q[0] * cond_hit(g0)
        + q[1] * cond_hit(g1)
        + q[2] * cond_hit(g2)
        + q[3] * cond_hit(p3)
    )
    return float(np.max(np.where(feasible, objective, -np.inf)))


def test_criterion_4_optimizer_global_optimality():
    """Water-filling solution vs brute-force grid search on random instances."""
    params = reference_params()
    rng = np.random.default_rng(4)
    c = derive_constants(params, params.gamma_u)
    ok = True
    worst_deficit = 0.0
    for _ in range(20):
        beta_skew = float(rng.uniform(0.0, 1.5))
        eps = rng.uniform(0.05, 0.9, size=4)
        catalog = make_catalog(4, beta_skew, eps, 2)
        sol = solve_ocp(catalog, params)
        grid_best = _grid_search(catalog, params, sol.caps)
        deficit = grid_best - sol.objective
        worst_deficit = max(worst_deficit, deficit)
        if deficit > 1e-4:
            ok = False
        # KKT stationarity on interior files.
        marginal = (
            catalog.popularity * c.tau2 / (c.tau1 * sol.policy.p + c.tau2) ** 2
        )
        for i, state in enumerate(sol.active_set):
            if state == "interior" and abs(marginal[i] - sol.dual) > 1e-6 * sol.dual:
                ok = False
        expected_mass = min(float(catalog.cache_size), float(sol.caps.sum()))
        if abs(sol.policy.p.sum() - expected_mass) > 1e-8:
            ok = False
    report(
        4,
        "optimizer beats grid search with valid stationarity certificate",
        ok,
        f"worst objective deficit {worst_deficit:.2e}",
    )
    assert ok


def test_criterion_5_scheme_dominance_trends():
    """Optimal placement dominates both greedy baselines across skew levels."""
    params = reference_params()
    betas = [0.25 * k for k in range(9)]
    ok = True
    for eps_max in [0.2, 0.5, 0.8]:
        eps = sample_secrecy_levels(10, eps_max, seed=7)
        ocp_vals, mpc_vals, lcc_vals = [], [], []
        for beta_skew in betas:
            catalog = make_catalog(10, beta_skew, eps, 5)
            sol = solve_ocp(catalog, params)
            from cacheplace.analytic import hit_probability

            mpc_v = hit_probability(mpc_placement(catalog, params), catalog, params)
            lcc_v = hit_probability(lcc_placement(catalog, params), catalog, params)
            if sol.objective < mpc_v - 1e-12 or sol.objective < lcc_v - 1e-12:
                ok = False
            ocp_vals.append(sol.objective)
            mpc_vals.append(mpc_v)
            lcc_vals.append(lcc_v)
        # The most-popular-first baseline approaches the optimum as skew
        # grows, and the low-secrecy-first baseline is relatively strongest
        # in the unskewed limit.
        gap_start = ocp_vals[0] - mpc_vals[0]
        gap_end = ocp_vals[-1] - mpc_vals[-1]
        if not gap_end < gap_start:
            ok = False
        if not (lcc_vals[0] - mpc_vals[0]) > (lcc_vals[-1] - mpc_vals[-1]):
            ok = False
    report(5, "placement scheme dominance and skew trends", ok)
    assert ok


def test_criterion_6_guard_zone_tradeoff():
    """Interior optimum of the guard radius for OCP; monotone decay for LCC."""
    params_by_d = {
        d: reference_params(guard_radius=float(d)) for d in range(50, 501, 50)
    }
    eps = sample_secrecy_levels(10, 0.5, seed=7)
    catalog = make_catalog(10, 0.7, eps, 5)
    from cacheplace.analytic import hit_probability

    ocp_curve, lcc_curve = [], []
    for d, params in params_by_d.items():
        ocp_curve.append(solve_ocp(catalog, params).objective)
        lcc_curve.append(
            hit_probability(lcc_placement(catalog, params), catalog, params)
        )
    peak = int(np.argmax(ocp_curve))
    interior_ok = 0 < peak < len(ocp_curve) - 1
    above_ends_ok = (
        ocp_curve[peak] > ocp_curve[0] and ocp_curve[peak] > ocp_curve[-1]
    )
    lcc_ok = all(b < a for a, b in zip(lcc_curve, lcc_curve[1:]))
    ok = interior_ok and above_ends_ok and lcc_ok
    report(
        6,
        "guard-zone radius tradeoff",
        ok,
        f"optimal-placement peak at D={50 * (peak + 1)} m",
    )
    assert ok


def test_criterion_7_round_trip_cap_inversion():
    """placement_cap inverts the secrecy lower bound to 1e-9."""
    params = reference_params()
    rng = np.random.default_rng(77)
    checked = 0
    worst = 0.0
    ok = True
    while checked < 100:
        eps = float(rng.uniform(0.0, 1.0))
        cap = placement_cap(eps, params)
        if not 0.0 < cap < 1.0:
            continue
        gap = abs(secrecy_probability_lower_bound(cap, params) - eps)
        worst = max(worst, gap)
        if gap > 1e-9:
            ok = False
        checked += 1
    report(7, "round-trip secrecy cap inversion", ok, f"worst residual {worst:.2e}")
    assert ok


def test_criterion_8_special_function_identities():
    """Closed-form identities and quadrature oracles for the special functions."""
    ok = True
    # delta = 1/2: kappa1(gamma = 1) = B(1/2, 1/2) / 2 = pi / 2.
    kappa1 = derive_constants(reference_params(alpha=4.0), 1.0).kappa1
    if abs(kappa1 - math.pi / 2) > 1e-9:
        ok = False
    for x in [0.25, 1.0, 3.0, 10.0]:
        if abs(hyp2f1_1b(0.5, -(x**2)) - math.atan(x) / x) > 1e-9:
            ok = False
        if abs(hyp2f1_1b(1.0, -x) - math.log1p(x) / x) > 1e-9:
            ok = False

    def oracle(lower):
        # 2 * int_lower^inf (1 - 1/(1 + gamma x^-alpha)) x dx
        return 2.0 * integrate.quad(
            lambda x: (1 - 1 / (1 + gamma * x ** (-alpha))) * x,
            lower,
            math.inf,
            epsabs=1e-12,
            epsrel=1e-9,
            limit=400,
        )[0]

    for alpha in [3.0, 4.0]:
        delta = 2.0 / alpha
        for gamma in [0.2, 1.0, 5.0]:
            kappa1 = derive_constants(reference_params(alpha=alpha), gamma).kappa1
            oracle1 = oracle(0.0)
            if abs(kappa1 - oracle1) > 1e-8 * abs(oracle1):
                ok = False
            kappa2 = (delta * gamma / (1 - delta)) * hyp2f1_1b(1 - delta, -gamma)
            oracle2 = oracle(1.0)
            if abs(kappa2 - oracle2) > 1e-8 * abs(oracle2):
                ok = False
    report(8, "special-function identities and quadrature oracles", ok)
    assert ok


def test_criterion_9_deterministic_csv_output(tmp_path):
    """Byte-identical sweep CSVs across repeated runs."""
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "catalog": {
                    "source": "inline",
                    "F": 4,
                    "beta": 0.7,
                    "C": 2,
                    "epsilon": [0.1, 0.3, 0.2, 0.4],
                },
                "sweep": {"variable": "D", "values": [100.0, 300.0]},
                "sim": {"trials": 50, "seed": 5},
            }
        )
    )
    outputs = []
    for name in ("a.csv", "b.csv", "c.csv"):
        out = str(tmp_path / name)
        assert main(["sweep", "--config", str(config), "--out", out]) == 0
        outputs.append(open(out, "rb").read())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(9, "byte-identical seeded CSV outputs", ok)
    assert ok

"""Output checks for the benchmark, built on an independent reference.

The reference re-derives every closed form from scipy (``special.hyp2f1``,
``special.beta``, ``integrate.quad``) and numpy, and shares no code with the
package under test. Each check has a stated tolerance; a run that is fast but
wrong counts its failed checks in the benchmark's ``failed`` total.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

# Tolerances, absolute unless stated.
FORMULA_TOL = 1e-9  # closed forms that are algebraic in the constants
EXACT_TOL = 1e-8  # exact secrecy integral against the re-evaluated one
ORDER_TOL = 1e-9  # secrecy_lb <= secrecy_exact
OBJECTIVE_TOL = 1e-12  # OCP objective >= MPC/LCC objective
BUDGET_RTOL = 1e-9  # |sum p - C| <= BUDGET_RTOL * C when the budget binds
KKT_RTOL = 1e-6  # stationarity, relative to the dual variable
HIT_FLOOR = 0.01  # MC estimate within max(3 * ci95, floor) of its closed form
SECRECY_FLOOR = 0.015


@dataclass(frozen=True)
class Constants:
    delta: float
    kappa1: float
    kappa2: float
    tau1: float
    tau2: float
    gamma: float


def linear(value_db):
    return 10.0 ** (value_db / 10.0)


def constants(params, gamma):
    """delta, kappa1, kappa2, tau1, tau2 at a linear SIR threshold."""
    delta = 2.0 / params["alpha"]
    kappa1 = delta * gamma**delta * special.beta(1.0 - delta, delta)
    kappa2 = (
        delta * gamma / (1.0 - delta)
        * special.hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -gamma)
    )
    thinning = math.exp(math.pi * params["eaves_density"] * params["guard_radius"] ** 2)
    return Constants(delta, kappa1, kappa2, 1.0 + kappa2 - kappa1, kappa1 * thinning, gamma)


def zipf(file_count, beta):
    weights = np.arange(1, file_count + 1, dtype=float) ** -beta
    return weights / math.fsum(weights)


def hit(p, cu):
    """Per-file hit probability p / (tau1 p + tau2); zero at p = 0."""
    p = np.asarray(p, float)
    return p / (cu.tau1 * p + cu.tau2)


def _leak_scale(params, ce):
    return math.exp(-math.pi * params["guard_radius"] ** 2 * ce.kappa1 * params["bs_density"])


def secrecy_lb(p, params, ce):
    if p == 0:
        return 1.0
    return 1.0 - _leak_scale(params, ce) / (ce.tau1 + ce.tau2 / p)


def caps(epsilon, params, ce):
    """Largest p whose secrecy lower bound still meets 1 - epsilon."""
    keep = 1.0 - np.asarray(epsilon, float)
    num = ce.tau2 * keep
    den = _leak_scale(params, ce) - ce.tau1 * keep
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0, num / den, 1.0)
    return np.where(num == 0, 0.0, np.minimum(1.0, ratio))


def secrecy_exact(p, params, ce):
    """1 - P(eavesdropper SIR > gamma_e), the integral over the wiretapped distance r > D.

    Substituting v = k pi lam_a (r^2 - D^2), with k = 1 + rate / (pi lam_a),
    turns the nearest-transmitter density times the interference term into
    exp(-rate D^2 - v) / k on [0, inf), whatever the densities; the integral
    is taken on [0, 60] (tail mass e^-60).
    """
    if p == 0:
        return 1.0
    d2 = params["guard_radius"] ** 2
    lam = params["bs_density"]
    lam_a = p * lam * math.exp(-params["eaves_density"] * math.pi * d2)
    rate = math.pi * ((lam - lam_a) * ce.kappa1 + lam_a * ce.kappa2)
    k = 1.0 + rate / (math.pi * lam_a)
    half_alpha = params["alpha"] / 2.0

    def integrand(v):
        r2 = d2 + v / (k * math.pi * lam_a)
        z = -((d2 / r2) ** half_alpha) / ce.gamma
        theta = -math.pi * lam_a * d2 * special.hyp2f1(1.0, ce.delta, 1.0 + ce.delta, z)
        return math.exp(theta - v)

    value, _ = integrate.quad(integrand, 0.0, 60.0, epsabs=1e-13, epsrel=1e-12, limit=400)
    return min(1.0, max(0.0, 1.0 - value * math.exp(-rate * d2) / k))


def kkt_residual(q, p, cap, nu, cu):
    """Per-file stationarity violation of a water-filling solution, relative to nu.

    Interior files must meet nu, capped files sit at or above it, zero files
    at or below it. With nu = 0 (caps fit the budget) every file sits at
    its cap and the residual is zero.
    """
    q, p, cap = (np.asarray(a, float) for a in (q, p, cap))
    if nu == 0:
        return np.where(p == cap, 0.0, np.inf)
    marginal = q * cu.tau2 / (cu.tau1 * p + cu.tau2) ** 2
    rel = (marginal - nu) / nu
    return np.where(
        p == 0, np.maximum(rel, 0.0), np.where(p >= cap, np.maximum(-rel, 0.0), np.abs(rel))
    )


def solution_residuals(solutions):
    """Worst budget and KKT residuals over (catalog, params, OcpSolution) triples.

    The budget residual is |sum p - C| / C where the budget binds; the KKT
    residual is the largest per-file violation relative to the dual.
    """
    budget = kkt = 0.0
    for catalog, net, solution in solutions:
        params = {
            "alpha": net.alpha, "bs_density": net.bs_density,
            "eaves_density": net.eaves_density, "guard_radius": net.guard_radius,
        }
        p, cap, size = solution.policy.p, solution.caps, catalog.cache_size
        if cap.sum() > size:
            budget = max(budget, abs(math.fsum(p) - size) / size)
        cu = constants(params, net.gamma_u)
        kkt = max(kkt, float(kkt_residual(catalog.popularity, p, cap, solution.dual, cu).max()))
    return {"budget": budget, "kkt": kkt}


class Checks:
    """Tally of attempted and failed checks, keeping the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def expect_all(self, ok_array, what):
        """One check per element of a boolean array."""
        ok_array = np.asarray(ok_array, bool)
        self.attempted += ok_array.size
        bad = int(ok_array.size - ok_array.sum())
        self.failed += bad
        if bad and len(self.messages) < 20:
            self.messages.append(f"{what}: {bad} of {ok_array.size} fail")

    def close(self, got, want, tol, what):
        self.expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} +- {tol:g}")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            if key not in ("sweep_var", "scheme", "quantity", "point", "status", "note"):
                row[key] = float(value) if value != "" else None
    return rows


def _mc(checks, estimate, ci, want, floor, what):
    tol = max(3.0 * ci, floor)
    checks.expect(
        abs(estimate - want) <= tol, f"{what}: MC {estimate:.4f} vs {want:.4f} +- {tol:.4f}"
    )


def check_sweep(checks, rows, sidecar, wl_cfg, simulated):
    """Every column of a sweep CSV against the reference, per point and scheme."""
    params, cat = wl_cfg["params"], wl_cfg["catalog"]
    F, C = cat["F"], cat["C"]
    var, values = wl_cfg["sweep"]["variable"], wl_cfg["sweep"]["values"]
    schemes = wl_cfg["schemes"]
    checks.expect(len(rows) == len(values) * len(schemes) * (F + 1), f"row count {len(rows)}")
    epsilon = np.asarray(sidecar["catalog"]["epsilon"], float)
    checks.expect(
        len(epsilon) == F and bool(np.all((epsilon > 0) & (epsilon < cat["epsilon_max"]))),
        "sampled secrecy levels lie in (0, epsilon_max)",
    )
    popularity = np.asarray(sidecar["catalog"]["popularity"])
    checks.expect(
        np.max(np.abs(popularity - zipf(F, cat["beta"]))) <= 1e-12, "sidecar popularity is Zipf"
    )
    cu = constants(params, linear(params["gamma_u_db"]))
    for value in values:
        beta = value if var == "beta" else cat["beta"]
        gamma_e_db = value if var == "gamma_e" else params["gamma_e_db"]
        q = zipf(F, beta)
        ce = constants(params, linear(gamma_e_db))
        want_caps = caps(epsilon, params, ce)
        aggregate = {}
        for scheme in schemes:
            block = [r for r in rows if r["sweep_value"] == value and r["scheme"] == scheme]
            files = sorted((r for r in block if r["file_index"] > 0), key=lambda r: r["file_index"])
            total = [r for r in block if r["file_index"] == 0]
            where = f"{var}={value:g} {scheme}"
            if len(files) != F or len(total) != 1:
                checks.expect(False, f"{where}: expected {F} file rows and one aggregate row")
                continue
            p = np.array([r["p_star"] for r in files])
            cap = np.array([r["psi_cap"] for r in files])
            checks.expect_all(np.abs(cap - want_caps) <= FORMULA_TOL, f"{where} psi_cap")
            checks.expect_all((p >= 0) & (p <= cap), f"{where} 0 <= p <= cap")
            checks.expect_all(
                np.abs(np.array([r["hit_analytic"] for r in files]) - hit(p, cu)) <= FORMULA_TOL,
                f"{where} hit_analytic",
            )
            for r in files:
                what = f"{where} file {int(r['file_index'])}"
                p_i = r["p_star"]
                exact = secrecy_exact(p_i, params, ce)
                lb = secrecy_lb(p_i, params, ce)
                checks.close(r["secrecy_lb"], lb, FORMULA_TOL, what + " secrecy_lb")
                checks.close(r["secrecy_exact"], exact, EXACT_TOL, what + " secrecy_exact")
                checks.expect(
                    r["secrecy_lb"] <= r["secrecy_exact"] + ORDER_TOL, what + " lb <= exact"
                )
                if simulated:
                    hit_i = float(hit(p_i, cu))
                    _mc(checks, r["hit_sim"], r["hit_ci"], hit_i, HIT_FLOOR, what + " hit_sim")
                    _mc(checks, r["secrecy_sim"], r["secrecy_ci"], exact, SECRECY_FLOOR,
                        what + " secrecy_sim")
            row = total[0]
            want_hit = float(np.dot(q, hit(p, cu)))
            aggregate[scheme] = row["hit_analytic"]
            checks.close(row["hit_analytic"], want_hit, FORMULA_TOL, where + " aggregate hit")
            checks.expect(row["p_star"] <= C * (1 + BUDGET_RTOL), where + " sum p <= C")
            if scheme == "OCP" and float(want_caps.sum()) > C:
                checks.close(row["p_star"], C, BUDGET_RTOL * C, where + " budget binds")
            if simulated:
                _mc(checks, row["hit_sim"], row["hit_ci"], want_hit, HIT_FLOOR,
                    where + " aggregate hit_sim")
        if "OCP" in aggregate:
            for scheme, value_hit in aggregate.items():
                checks.expect(aggregate["OCP"] >= value_hit - OBJECTIVE_TOL,
                              f"{var}={value:g} OCP >= {scheme}")


def check_validate(checks, rows, exit_code, wl_cfg):
    """Report rows against the reference; returns validate's own-rule failures.

    The returned counts are (secrecy_lb rows, other rows) whose status is
    "fail" under validate's own rule. They are reported, not counted as
    failed checks: the lower bound is known to be loose at default
    densities, and validate's rule is only a ~2 sigma test once ci95
    exceeds its floor.
    """
    params = wl_cfg["params"]
    hit_grid, secrecy_grid = (0.2, 0.5, 1.0), (0.2, 0.5, 0.8)
    F = wl_cfg["catalog"]["F"]
    checks.expect(len(rows) == len(hit_grid) * F + 2 * len(secrecy_grid),
                  f"report has {len(rows)} rows")
    any_fail = any(r["status"] == "fail" for r in rows)
    checks.expect(exit_code == (1 if any_fail else 0), f"exit code {exit_code} matches the report")
    cu = constants(params, linear(params["gamma_u_db"]))
    ce = constants(params, linear(params["gamma_e_db"]))
    lb_fail = other_fail = 0
    for r in rows:
        p = float(r["point"].split()[0].removeprefix("p="))
        what = f"{r['quantity']} {r['point']}"
        if r["quantity"] == "hit":
            want = float(hit(p, cu))
            checks.close(r["analytic"], want, FORMULA_TOL, what + " analytic")
            _mc(checks, r["simulated"], r["ci"], want, HIT_FLOOR, what)
        elif r["quantity"] == "secrecy_exact":
            want = secrecy_exact(p, params, ce)
            checks.close(r["analytic"], want, EXACT_TOL, what + " analytic")
            _mc(checks, r["simulated"], r["ci"], want, SECRECY_FLOOR, what)
        elif r["quantity"] == "secrecy_lb":
            checks.close(r["analytic"], secrecy_lb(p, params, ce), FORMULA_TOL, what + " analytic")
            exact = secrecy_exact(p, params, ce)
            checks.expect(r["analytic"] <= exact + ORDER_TOL, what + " lb <= exact")
        else:
            checks.expect(False, f"unknown report quantity {r['quantity']!r}")
        if r["status"] == "fail":
            if r["quantity"] == "secrecy_lb":
                lb_fail += 1
            else:
                other_fail += 1
    return lb_fail, other_fail


def check_solve(checks, doc, wl_cfg):
    """Caps, feasibility, budget, KKT stationarity and scheme order of a solve."""
    params, cat = wl_cfg["params"], wl_cfg["catalog"]
    F, C = cat["F"], cat["C"]
    p = np.asarray(doc["p_star"], float)
    cap = np.asarray(doc["caps"], float)
    if len(p) != F or len(cap) != F or len(doc["active_set"]) != F:
        checks.expect(False, "solution vectors have the catalog's length")
        return
    # The "sampled" catalog source: levels uniform on (0, epsilon_max) from
    # numpy's default generator under the catalog seed.
    epsilon = cat["epsilon_max"] * np.random.default_rng(cat["seed"]).random(F)
    cu = constants(params, linear(params["gamma_u_db"]))
    ce = constants(params, linear(params["gamma_e_db"]))
    q = zipf(F, cat["beta"])
    checks.expect_all(np.abs(cap - caps(epsilon, params, ce)) <= FORMULA_TOL, "caps")
    checks.expect_all((p >= 0) & (p <= cap), "0 <= p <= cap")
    if cap.sum() > C:
        checks.close(float(p.sum()), C, BUDGET_RTOL * C, "budget binds")
    checks.expect_all(kkt_residual(q, p, cap, doc["dual"], cu) <= KKT_RTOL, "KKT stationarity")
    objective = float(np.dot(q, hit(p, cu)))
    checks.close(doc["objective"], objective, FORMULA_TOL * max(1.0, objective), "objective")
    scores = doc["hit_probability"]
    for scheme in ("MPC", "LCC"):
        checks.expect(scores["OCP"] >= scores[scheme] - OBJECTIVE_TOL, f"OCP >= {scheme}")

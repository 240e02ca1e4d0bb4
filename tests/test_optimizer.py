"""Tests for the water-filling placement solver and the greedy baselines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacheplace import optimizer
from cacheplace.analytic import (
    NetworkParams,
    db_to_linear,
    derive_constants,
    hit_probability,
    placement_cap,
    secrecy_probability_lower_bound,
)
from cacheplace.catalog import (
    FileCatalog,
    PlacementPolicy,
    make_catalog,
    sample_secrecy_levels,
)
from cacheplace.optimizer import lcc_placement, mpc_placement, solve_ocp

BS_DENSITY = 1.0 / 800.0**2


def default_params(**overrides):
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


def grid_search_objective(catalog, params, caps, step=0.005):
    """Brute-force oracle: best hit probability over a grid for F=4.

    The first three coordinates run over a grid inside their caps; the last
    file takes the remaining budget (projected into its own box), which is
    optimal because the objective is increasing in each coordinate.
    """
    assert catalog.file_count == 4
    budget = catalog.cache_size
    axes = [np.arange(0.0, caps[i] + 1e-12, step) for i in range(3)]
    g0, g1, g2 = np.meshgrid(*axes, indexing="ij")
    p3 = np.clip(budget - g0 - g1 - g2, 0.0, caps[3])
    feasible = g0 + g1 + g2 + p3 <= budget + 1e-9
    c = derive_constants(params, params.gamma_u)
    q = catalog.popularity

    def cond_hit(p):
        return np.where(p > 0, p / (c.tau1 * p + c.tau2), 0.0)

    objective = (
        q[0] * cond_hit(g0)
        + q[1] * cond_hit(g1)
        + q[2] * cond_hit(g2)
        + q[3] * cond_hit(p3)
    )
    objective = np.where(feasible, objective, -np.inf)
    best = np.unravel_index(np.argmax(objective), objective.shape)
    p_best = np.array([g0[best], g1[best], g2[best], p3[best]])
    return float(objective[best]), p_best


class TestSolveOcp:
    def test_symmetric_instance_splits_evenly(self):
        # Equal popularity and equal caps of 1: the optimum spreads the
        # budget uniformly, p_i = C / F.
        params = default_params()
        cat = make_catalog(5, 0.0, [0.0] * 5, 2)
        sol = solve_ocp(cat, params)
        assert np.allclose(sol.policy.p, 0.4, atol=1e-8)
        assert sol.dual > 0
        assert sol.active_set == ("interior",) * 5

    def test_slack_budget_returns_caps(self):
        # Tight secrecy levels make every cap small; when the caps sum to
        # less than C they are themselves optimal and the dual is zero.
        params = default_params()
        eps = [0.95, 0.9, 0.92, 0.97, 0.9]
        cat = make_catalog(5, 0.7, eps, 4)
        caps = placement_cap(cat.secrecy_levels, params)
        assert caps.sum() < cat.cache_size
        sol = solve_ocp(cat, params)
        assert np.allclose(sol.policy.p, caps)
        assert sol.dual == 0.0
        assert all(s in ("capped", "zero") for s in sol.active_set)

    def test_matches_grid_search_oracle(self):
        params = default_params()
        cat = make_catalog(4, 0.7, [0.1, 0.6, 0.3, 0.8], 2)
        caps = placement_cap(cat.secrecy_levels, params)
        sol = solve_ocp(cat, params)
        best_obj, best_p = grid_search_objective(cat, params, caps)
        # The solver must do at least as well as the grid, and agree with
        # the grid point to within the grid resolution.
        assert sol.objective >= best_obj - 1e-12
        assert np.max(np.abs(sol.policy.p - best_p)) <= 0.005 + 1e-9

    def test_budget_met_exactly(self):
        params = default_params()
        for seed in range(5):
            eps = sample_secrecy_levels(10, 0.6, seed=seed)
            cat = make_catalog(10, 0.7, eps, 5)
            sol = solve_ocp(cat, params)
            caps = placement_cap(cat.secrecy_levels, params)
            expected = min(float(cat.cache_size), float(caps.sum()))
            assert sol.policy.p.sum() == pytest.approx(expected, abs=1e-8)

    def test_kkt_residuals(self):
        # Interior files share a common marginal value nu; capped files have
        # marginal value >= nu and zero files <= nu.
        params = default_params()
        eps = sample_secrecy_levels(10, 0.6, seed=3)
        cat = make_catalog(10, 0.7, eps, 5)
        sol = solve_ocp(cat, params)
        c = derive_constants(params, params.gamma_u)
        marginal = (
            cat.popularity * c.tau2 / (c.tau1 * sol.policy.p + c.tau2) ** 2
        )
        for i, state in enumerate(sol.active_set):
            if state == "interior":
                assert marginal[i] == pytest.approx(sol.dual, rel=1e-6)
            elif state == "capped":
                assert marginal[i] >= sol.dual - 1e-6 * sol.dual
            else:
                assert marginal[i] <= sol.dual + 1e-6 * sol.dual

    def test_secrecy_feasible(self):
        params = default_params()
        eps = sample_secrecy_levels(10, 0.6, seed=9)
        cat = make_catalog(10, 0.7, eps, 5)
        sol = solve_ocp(cat, params)
        for p_i, eps_i in zip(sol.policy.p, cat.secrecy_levels):
            assert secrecy_probability_lower_bound(float(p_i), params) >= (
                eps_i - 1e-9
            )

    def test_permutation_equivariance(self):
        params = default_params()
        eps = [0.1, 0.6, 0.3, 0.8, 0.2]
        cat = make_catalog(5, 0.7, eps, 2)
        sol = solve_ocp(cat, params)
        perm = np.array([3, 0, 4, 1, 2])
        cat_perm = FileCatalog(
            popularity=cat.popularity[perm],
            secrecy_levels=cat.secrecy_levels[perm],
            cache_size=2,
        )
        sol_perm = solve_ocp(cat_perm, params)
        assert np.allclose(sol_perm.policy.p, sol.policy.p[perm], atol=1e-8)

    def test_dominates_baselines_on_random_instances(self):
        # Hit probabilities fall to ~1e-180 at D = 20.5 km and ~1e-266 at
        # 25 km, so OCP is compared relatively; it fills the budget whenever
        # the caps exceed it.
        for guard_radius in (200.0, 20500.0, 25000.0):
            params = default_params(guard_radius=guard_radius)
            rng = np.random.default_rng(2024)
            for _ in range(100):
                file_count = int(rng.integers(3, 12))
                cache = int(rng.integers(1, file_count))
                beta = float(rng.uniform(0.0, 1.5))
                eps = rng.uniform(0.01, 0.9, size=file_count)
                cat = make_catalog(file_count, beta, eps, cache)
                sol = solve_ocp(cat, params)
                if sol.caps.sum() > cache:
                    assert math.fsum(sol.policy.p) == pytest.approx(cache, rel=1e-12)
                for baseline in (mpc_placement, lcc_placement):
                    value = hit_probability(baseline(cat, params), cat, params)
                    assert sol.objective >= value * (1.0 - 1e-10)


class TestWaterFill:
    """The breakpoint search for the budget's dual variable."""

    def test_clipped_total_decreasing_in_dual(self):
        params = default_params()
        cat = make_catalog(8, 0.7, [0.2] * 8, 4)
        caps = placement_cap(cat.secrecy_levels, params)
        c = derive_constants(params, params.gamma_u)
        nu_star = solve_ocp(cat, params).dual
        totals = []
        for s in [0.25, 0.5, 1.0, 2.0, 4.0]:
            root = np.sqrt(c.tau2 * cat.popularity / (nu_star * s))
            levels = (root - c.tau2) / c.tau1
            totals.append(np.clip(levels, 0.0, caps).sum())
        assert all(t1 >= t2 for t1, t2 in zip(totals, totals[1:]))
        assert totals[2] == pytest.approx(cat.cache_size, abs=1e-12)


def assert_water_filling_certificate(catalog, params):
    """Budget met to 1e-12 C when it binds; KKT stationarity to 1e-6 mu.

    The marginal value q tau2 / (tau1 p + tau2)^2 is compared on the scale
    mu = nu tau2, as q / (1 + p / ratio)^2 with ratio = tau2 / tau1, where
    neither side overflows however large tau2 is.
    """
    sol = solve_ocp(catalog, params)
    budget = catalog.cache_size
    if sol.caps.sum() > budget:
        assert abs(math.fsum(sol.policy.p) - budget) <= 1e-12 * budget
    c = derive_constants(params, params.gamma_u)
    marginal = catalog.popularity / (1.0 + sol.policy.p / (c.tau2 / c.tau1)) ** 2
    mu = sol.dual * c.tau2
    slack = 1e-6 * mu
    for value, state in zip(marginal, sol.active_set):
        if state == "interior":
            assert abs(value - mu) <= slack
        elif state == "capped":
            assert value >= mu - slack
        else:
            assert value <= mu + slack


@st.composite
def random_catalogs(draw):
    # Levels of exactly 0 give caps of exactly 1, so with an integer budget
    # the dual is often not unique (no file is interior).
    file_count = draw(st.integers(2, 30))
    levels = st.one_of(st.just(0.0), st.floats(0.0, 0.95))
    return make_catalog(
        file_count,
        draw(st.floats(0.0, 1.5)),
        draw(st.lists(levels, min_size=file_count, max_size=file_count)),
        draw(st.integers(1, file_count - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(random_catalogs())
def test_water_filling_certificate_on_random_catalogs(catalog):
    assert_water_filling_certificate(catalog, default_params())


def certificate_catalog(levels):
    # "tied" files (beta = 0, levels 0) are all interior.
    eps = sample_secrecy_levels(10, 0.5, seed=1) if levels == "sampled" else [0.0] * 10
    return make_catalog(10, 0.0 if levels == "tied" else 0.7, eps, 5)


@pytest.mark.parametrize("guard_km", [1, 2, 3, 5, 8, 15, 20, 22, 25])
@pytest.mark.parametrize("levels", ["sampled", "zero", "tied"])
def test_water_filling_certificate_at_large_guard_radius(guard_km, levels):
    # tau2 / tau1 grows as exp(pi lambda_e D^2), to ~1e96 at D = 15 km, where
    # each file jumps from 0 to its cap within one ulp of nu, and to ~1e266
    # at 25 km, where tau2^2 is past the float range.
    assert_water_filling_certificate(
        certificate_catalog(levels), default_params(guard_radius=1000.0 * guard_km)
    )


@pytest.mark.parametrize("guard_m", [900.0, 1200.0])
@pytest.mark.parametrize("levels", ["sampled", "zero", "tied"])
def test_water_filling_certificate_with_dense_eavesdroppers(guard_m, levels):
    # At lambda_e = 100 lambda, tau2 / tau1 is ~1e173 at 900 m and ~2e307 at
    # 1200 m, where 10 tied interior files would make k tau2 / tau1 overflow.
    params = default_params(eaves_density=100.0 * BS_DENSITY, guard_radius=guard_m)
    assert_water_filling_certificate(certificate_catalog(levels), params)


def test_water_filling_budget_with_tied_files_at_4_km():
    # The stationary point (sqrt(tau2 q_i / nu) - tau2) / tau1 cancels at
    # tau2 / tau1 ~ 1e8; built from it alone, sum(p) overshot C = 1 by 8e-9.
    catalog = make_catalog(7, 0.0, [0.0] * 7, 1)
    assert_water_filling_certificate(catalog, default_params(guard_radius=4000.0))


class TestBaselines:
    def test_mpc_hand_trace(self):
        # Popularity descending by construction; caps (0.3, 1, 0.7, 1, 1),
        # budget 2 -> fill 0.3, 1.0, 0.7 and stop.
        params = default_params()
        cat = make_catalog(5, 0.7, [0.0] * 5, 2)
        caps = np.array([0.3, 1.0, 0.7, 1.0, 1.0])
        order = [0, 1, 2, 3, 4]
        p = optimizer._greedy_fill(order, caps, cat.cache_size)
        assert np.allclose(p, [0.3, 1.0, 0.7, 0.0, 0.0])
        # MPC visits the files in that order, up to their own caps.
        own_caps = placement_cap(cat.secrecy_levels, params)
        assert np.array_equal(
            mpc_placement(cat, params).p,
            optimizer._greedy_fill(order, own_caps, cat.cache_size),
        )

    def test_lcc_hand_trace(self):
        # Visit order by ascending secrecy level: files 2 (eps .1), 0 (.2),
        # 3 (.5), 1 (.9). Caps 1 except file 1 capped at 0.4; budget 2 fills
        # file 2 and file 0 fully.
        params = default_params()
        cat = make_catalog(4, 0.7, [0.2, 0.9, 0.1, 0.5], 2)
        caps = np.array([1.0, 0.4, 1.0, 1.0])
        order = [2, 0, 3, 1]
        p = optimizer._greedy_fill(order, caps, cat.cache_size)
        assert np.allclose(p, [1.0, 0.0, 1.0, 0.0])
        # LCC visits the files in that order, up to their own caps.
        own_caps = placement_cap(cat.secrecy_levels, params)
        assert np.array_equal(
            lcc_placement(cat, params).p,
            optimizer._greedy_fill(order, own_caps, cat.cache_size),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        caps=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
            min_size=1, max_size=12,
        ),
        budget=st.integers(0, 6),
        data=st.data(),
    )
    def test_greedy_fill_matches_the_loop(self, caps, budget, data):
        # The visit loop that _greedy_fill replaced, kept as its reference.
        # Sampled caps give ties, zero caps and caps that use up the budget
        # exactly.
        def loop_fill(order, caps, budget):
            p = np.zeros(len(caps))
            remaining = float(budget)
            for idx in order:
                if remaining <= 0:
                    break
                take = min(1.0, float(caps[idx]), remaining)
                p[idx] = take
                remaining -= take
            return p

        caps = np.array(caps)
        order = data.draw(st.permutations(range(len(caps))))
        want = loop_fill(order, caps, budget)
        assert optimizer._greedy_fill(order, caps, budget).tobytes() == want.tobytes()

    def test_baselines_respect_caps_and_budget(self):
        params = default_params()
        for seed in range(5):
            eps = sample_secrecy_levels(10, 0.6, seed=seed)
            cat = make_catalog(10, 0.7, eps, 5)
            caps = placement_cap(cat.secrecy_levels, params)
            for baseline in (mpc_placement, lcc_placement):
                policy = baseline(cat, params)
                assert np.all(policy.p <= caps + 1e-12)
                assert policy.p.sum() <= cat.cache_size + 1e-9

    def test_baselines_agree_when_order_coincides(self):
        # With secrecy levels sorted the same way as popularity the two
        # greedy baselines visit files in the same order.
        params = default_params()
        cat = make_catalog(6, 0.7, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 3)
        p_mpc = mpc_placement(cat, params).p
        p_lcc = lcc_placement(cat, params).p
        assert np.allclose(p_mpc, p_lcc)


def test_tied_keys_go_to_the_lower_index(monkeypatch):
    # 300 equally popular files at four secrecy levels: the popularity, the
    # secrecy levels and the water-filling breakpoints all tie, and the
    # default sort reorders ties. Every placement must equal the one that
    # sorts with kind="stable".
    levels = np.random.default_rng(30).choice([0.05, 0.1, 0.2, 0.3], 300)
    params = default_params(gamma_e=db_to_linear(-25.0))
    catalogs = [make_catalog(300, 0.0, levels, size) for size in (10, 20, 200)]

    def placements():
        return [
            (mpc_placement(cat, params).p.tobytes(),
             lcc_placement(cat, params).p.tobytes(),
             solve_ocp(cat, params).policy.p.tobytes(),
             solve_ocp(cat, params).active_set,
             solve_ocp(cat, params).dual)
            for cat in catalogs
        ]

    got = placements()
    monkeypatch.setattr(
        optimizer, "_argsort", lambda key: np.argsort(key, kind="stable")
    )
    assert got == placements()


def test_caps_shrink_with_level():
    params = default_params()
    cat = make_catalog(4, 0.7, [0.1, 0.3, 0.6, 0.9], 2)
    caps = placement_cap(cat.secrecy_levels, params)
    assert np.all(np.diff(caps) <= 0)
    assert caps[-1] < caps[0]

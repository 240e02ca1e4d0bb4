"""Tests for the closed-form hit and secrecy probability formulas."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from cacheplace import analytic
from cacheplace.analytic import (
    NetworkParams,
    conditional_hit_probability,
    db_to_linear,
    derive_constants,
    hit_probability,
    placement_cap,
    secrecy_probability_exact,
    secrecy_probability_lower_bound,
)
from cacheplace.catalog import PlacementPolicy, make_catalog
from cacheplace.cli import parse_spec
from cacheplace.special import ConvergenceError

BS_DENSITY = 1.0 / 800.0**2


def default_params(**overrides):
    """Reference parameter set used throughout the experiments."""
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


class TestNetworkParams:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": 2.0},
            {"alpha": 1.5},
            {"bs_density": 0.0},
            {"eaves_density": -1e-9},
            {"guard_radius": -1.0},
            {"gamma_u": 0.0},
        ],
    )
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            default_params(**overrides)

    @pytest.mark.parametrize(
        "field",
        ["bs_density", "eaves_density", "alpha", "guard_radius", "gamma_u", "gamma_e"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            default_params(**{field: value})

    def test_db_construction(self):
        # The CLI boundary converts the dB thresholds with db_to_linear.
        spec = parse_spec({"params": {"gamma_u_db": -5.0, "gamma_e_db": -7.0}})
        assert spec.params.gamma_u == db_to_linear(-5.0)
        assert spec.params.gamma_u == pytest.approx(10 ** (-0.5), rel=1e-15)
        assert spec.params.gamma_e == pytest.approx(10 ** (-0.7), rel=1e-15)

    def test_delta(self):
        assert default_params(alpha=4.0).delta == 0.5


class TestDeriveConstants:
    def test_alpha4_unit_gamma(self):
        # delta = 1/2: kappa1 = B(1/2, 1/2)/2 = pi/2, kappa2 = arctan(1) = pi/4.
        params = default_params(alpha=4.0, eaves_density=0.0, guard_radius=0.0)
        c = derive_constants(params, 1.0)
        assert c.kappa1 == pytest.approx(math.pi / 2, rel=1e-12)
        assert c.kappa2 == pytest.approx(math.pi / 4, rel=1e-10)
        assert c.tau2 == pytest.approx(c.kappa1, rel=1e-15)

    def test_kappa1_matches_scipy_beta(self):
        # The reflection formula must agree with delta gamma^delta B(1-delta,
        # delta) down to alpha near 2, where the quadrature oracles cannot go.
        for alpha in np.linspace(2.05, 8.0, 60):
            delta = 2.0 / alpha
            params = default_params(alpha=float(alpha))
            for gamma in [1e-3, 0.3, 1.0, 10.0, 1e4]:
                expected = delta * gamma**delta * special.beta(1.0 - delta, delta)
                kappa1 = derive_constants(params, gamma).kappa1
                assert kappa1 == pytest.approx(expected, rel=1e-14)

    def test_kappa2_quadrature_oracle(self):
        # kappa2(gamma) = 2 * int_1^inf (1 - 1/(1 + gamma z^-alpha)) z dz.
        for alpha in [3.0, 4.0, 5.0]:
            for gamma in [0.2, 1.0, 3.0]:
                params = default_params(alpha=alpha)
                c = derive_constants(params, gamma)
                oracle = 2.0 * integrate.quad(
                    lambda z: (1 - 1 / (1 + gamma * z ** (-alpha))) * z,
                    1.0,
                    math.inf,
                    epsabs=1e-12,
                    epsrel=1e-9,
                    limit=400,
                )[0]
                assert c.kappa2 == pytest.approx(oracle, rel=1e-8)

    def test_guard_zone_enters_tau2(self):
        params = default_params()
        c = derive_constants(params, params.gamma_e)
        factor = math.exp(math.pi * params.eaves_density * params.guard_radius**2)
        assert c.tau2 == pytest.approx(c.kappa1 * factor, rel=1e-14)

    def test_invariants_across_grid(self):
        for alpha in [2.5, 3.0, 4.0, 6.0]:
            for gamma in [0.05, 0.5, 2.0, 20.0]:
                c = derive_constants(default_params(alpha=alpha), gamma)
                assert 0 < c.delta < 1
                assert c.kappa1 > 0 and c.kappa2 > 0
                assert c.tau2 >= c.kappa1 * (1 - 1e-14)
                assert c.tau1 + c.tau2 >= 1 - 1e-12

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            derive_constants(default_params(), 0.0)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_gamma(self, gamma):
        # Not blamed on the guard zone, as an overflowing tau2 would be.
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            derive_constants(default_params(), gamma)

    def test_guard_zone_overflow_is_a_value_error(self):
        # pi * lambda_e * D^2 = 883.6 at D = 30 km: exp overflows tau2.
        with pytest.raises(ValueError, match="pi \\* eaves_density"):
            derive_constants(default_params(guard_radius=30_000.0), 1.0)


class TestHitProbability:
    def test_zero_policy(self):
        cat = make_catalog(10, 0.7, [0.0] * 10, 5)
        policy = PlacementPolicy(np.full(10, 0.0))
        assert hit_probability(policy, cat, default_params()) == 0.0

    def test_classical_coverage_value(self):
        # Single cached-everywhere file, no eavesdroppers, alpha=4, gamma=1:
        # reduces to the classical 1/(1 + pi/4) nearest-BS coverage result.
        params = default_params(
            alpha=4.0, eaves_density=0.0, guard_radius=0.0, gamma_u=1.0
        )
        assert conditional_hit_probability(1.0, params) == pytest.approx(
            1.0 / (1.0 + math.pi / 4.0), abs=1e-10
        )

    def test_conditional_array_matches_scalar(self):
        params = default_params()
        grid = np.linspace(0.0, 1.0, 11)
        values = conditional_hit_probability(grid, params)
        assert values.tolist() == [
            conditional_hit_probability(float(p), params) for p in grid
        ]
        with pytest.raises(ValueError):
            conditional_hit_probability(np.array([0.5, 1.5]), params)

    def test_conditional_endpoints_and_concavity(self):
        params = default_params()
        assert conditional_hit_probability(0.0, params) == 0.0
        c = derive_constants(params, params.gamma_u)
        assert conditional_hit_probability(1.0, params) == pytest.approx(
            1.0 / (c.tau1 + c.tau2), rel=1e-14
        )
        grid = np.linspace(0.0, 1.0, 21)
        values = [conditional_hit_probability(p, params) for p in grid]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
        second_diff = np.diff(values, n=2)
        assert np.all(second_diff < 1e-12)

    def test_monotone_in_each_file(self):
        params = default_params()
        cat = make_catalog(5, 0.7, [0.1] * 5, 2)
        base = np.full(5, 0.3)
        reference = hit_probability(PlacementPolicy(base), cat, params)
        for i in range(5):
            bumped = base.copy()
            bumped[i] += 0.1
            assert hit_probability(PlacementPolicy(bumped), cat, params) > reference

    def test_bounded(self):
        params = default_params()
        cat = make_catalog(10, 1.5, [0.0] * 10, 5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            policy = PlacementPolicy(rng.random(10))
            assert 0.0 <= hit_probability(policy, cat, params) <= 1.0

    def test_matches_per_file_sum(self):
        params = default_params()
        cat = make_catalog(50, 0.9, [0.0] * 50, 25)
        policy = PlacementPolicy(np.random.default_rng(5).random(50))
        reference = math.fsum(
            q * conditional_hit_probability(float(p), params)
            for q, p in zip(cat.popularity, policy.p)
        )
        assert hit_probability(policy, cat, params) == pytest.approx(
            reference, rel=1e-14
        )

    def test_length_mismatch(self):
        cat = make_catalog(5, 0.7, [0.1] * 5, 2)
        with pytest.raises(ValueError):
            hit_probability(PlacementPolicy(np.full(4, 0.5)), cat, default_params())

    def test_decreasing_in_guard_radius(self):
        values = [
            conditional_hit_probability(0.5, default_params(guard_radius=d))
            for d in [0.0, 100.0, 200.0, 400.0]
        ]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))


def secrecy_exact_reference(p_i, params):
    """One minus the per-entry r-domain integral, an oracle independent of the rule.

    Integrates the eavesdropper's coverage kernel against the
    nearest-transmitter distance density 2 pi lam_a r exp(-pi lam_a (r^2 - D^2))
    over r in [D, inf), with scipy's 2F1. The integrand decays like
    exp(-s (r^2 - D^2)) with s = rate + pi lam_a, so each entry's range is
    split at r^2 - D^2 = 1/s and 40/s and the three quad pieces are summed
    exactly; one quad over the whole range can stall on the far tail.
    """
    if p_i == 0.0:
        return 1.0
    c = derive_constants(params, params.gamma_e)
    lam = params.bs_density
    d = params.guard_radius
    lam_a = p_i * lam * math.exp(-params.eaves_density * math.pi * d**2)
    rate = math.pi * ((lam - lam_a) * c.kappa1 + lam_a * c.kappa2)

    def integrand(r):
        theta = 0.0
        if d > 0:
            z = -((d / r) ** params.alpha) / params.gamma_e
            theta = -math.pi * lam_a * d**2 * special.hyp2f1(1, c.delta, 1 + c.delta, z)
        density = 2.0 * math.pi * lam_a * r * math.exp(-math.pi * lam_a * (r**2 - d**2))
        return math.exp(-rate * r**2 + theta) * density

    s = rate + math.pi * lam_a
    edges = [d, math.sqrt(d**2 + 1.0 / s), math.sqrt(d**2 + 40.0 / s), math.inf]
    value = math.fsum(
        integrate.quad(integrand, a, b, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )
    return min(1.0, max(0.0, 1.0 - value))


class TestSecrecyProbability:
    def test_never_cached_is_safe(self):
        params = default_params()
        assert secrecy_probability_lower_bound(0.0, params) == 1.0
        assert secrecy_probability_exact(0.0, params) == 1.0

    def test_lower_bound_closed_form_no_guard(self):
        params = default_params(guard_radius=0.0)
        c = derive_constants(params, params.gamma_e)
        assert secrecy_probability_lower_bound(1.0, params) == pytest.approx(
            1.0 - 1.0 / (c.tau1 + c.tau2), rel=1e-14
        )

    def test_exact_equals_bound_without_guard_zone(self):
        params = default_params(guard_radius=0.0)
        for p in [0.1, 0.5, 1.0]:
            assert secrecy_probability_exact(p, params) == pytest.approx(
                secrecy_probability_lower_bound(p, params), abs=1e-10
            )

    def test_bound_ordering_over_grid(self):
        param_sets = [
            default_params(),
            default_params(alpha=4.0, guard_radius=100.0),
            default_params(eaves_density=BS_DENSITY / 2.0, gamma_e=0.5),
        ]
        for params in param_sets:
            for p in np.arange(0.05, 1.0001, 0.05):
                lb = secrecy_probability_lower_bound(float(p), params)
                exact = secrecy_probability_exact(float(p), params)
                assert lb <= exact + 1e-12

    def test_bound_tightens_at_high_transmitter_density(self):
        # The gap collapses once the nearest-transmitter distance
        # concentrates near the guard radius (dense active transmitters).
        gaps = []
        for scale in [1.0, 25.0, 125.0]:
            params = default_params(
                bs_density=BS_DENSITY * scale, eaves_density=BS_DENSITY / 5.0
            )
            gaps.append(
                secrecy_probability_exact(0.8, params)
                - secrecy_probability_lower_bound(0.8, params)
            )
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]

    def test_decreasing_in_placement_probability(self):
        params = default_params()
        grid = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
        lower = [secrecy_probability_lower_bound(p, params) for p in grid]
        exact = [secrecy_probability_exact(p, params) for p in grid]
        assert all(v2 < v1 for v1, v2 in zip(lower, lower[1:]))
        assert all(v2 < v1 for v1, v2 in zip(exact, exact[1:]))

    def test_increasing_in_guard_radius(self):
        values = [
            secrecy_probability_lower_bound(0.5, default_params(guard_radius=d))
            for d in [0.0, 100.0, 200.0, 400.0]
        ]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [2.2, 3.0, 4.0])
    @pytest.mark.parametrize("guard_radius", [0.0, 50.0, 200.0, 1000.0, 3000.0, 5000.0])
    def test_exact_matches_r_domain_reference(self, alpha, guard_radius):
        p = np.array([0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.2, 0.5, 0.8, 1.0])
        for gamma_e_db in [-30.0, -7.0, 0.0, 20.0, 40.0, 70.0]:
            params = default_params(
                alpha=alpha, guard_radius=guard_radius, gamma_e=db_to_linear(gamma_e_db)
            )
            reference = [secrecy_exact_reference(float(p_i), params) for p_i in p]
            assert secrecy_probability_exact(p, params) == pytest.approx(
                reference, abs=1e-12
            )

    def test_exact_raises_when_quadrature_fails(self, monkeypatch):
        # No rule meets a budget of 1e-300, which drives the error path.
        monkeypatch.setattr(analytic, "_DE_ERROR_BUDGET", 1e-300)
        with pytest.raises(ConvergenceError) as excinfo:
            secrecy_probability_exact(np.array([0.2, 0.5]), default_params())
        assert excinfo.value.estimate.shape == (2,)
        assert excinfo.value.error_bound >= 0
        assert secrecy_probability_exact(0.0, default_params()) == 1.0

    def test_error_estimate_keeps_a_margin_over_the_parameter_grid(self, monkeypatch):
        # Over alpha, D, gamma_e, lambda_e and p the rule's error estimate
        # stays ten times below its budget (measured at most 4.0e-10).
        monkeypatch.setattr(
            analytic, "_DE_ERROR_BUDGET", analytic._DE_ERROR_BUDGET / 10.0
        )
        p = np.array([1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.8, 1.0])
        for alpha in [2.2, 3.0, 4.0]:
            for guard_radius in [0.0, 10.0, 50.0, 200.0, 1000.0, 3000.0, 5000.0]:
                for eaves_density in [BS_DENSITY, BS_DENSITY / 5.0, BS_DENSITY / 50.0]:
                    for gamma_e_db in range(-30, 71, 10):
                        params = default_params(
                            alpha=alpha,
                            guard_radius=guard_radius,
                            eaves_density=eaves_density,
                            gamma_e=db_to_linear(gamma_e_db),
                        )
                        values = secrecy_probability_exact(p, params)
                        assert np.all((values >= 0.0) & (values <= 1.0))


class TestPlacementCap:
    def test_full_secrecy_forbids_caching(self):
        assert placement_cap(1.0, default_params()) == 0.0

    def test_loose_level_allows_full_caching(self):
        # With a tiny required level the denominator clamps and the cap is 1.
        params = default_params(guard_radius=600.0)
        assert placement_cap(0.01, params) == 1.0

    def test_round_trip_inversion(self):
        params = default_params()
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 100:
            eps = float(rng.uniform(0.0, 1.0))
            cap = placement_cap(eps, params)
            if not 0.0 < cap < 1.0:
                continue
            assert secrecy_probability_lower_bound(cap, params) == pytest.approx(
                eps, abs=1e-9
            )
            checked += 1

    def test_cap_monotone_in_level(self):
        params = default_params()
        caps = [placement_cap(e, params) for e in np.linspace(0.0, 1.0, 21)]
        assert all(c2 <= c1 for c1, c2 in zip(caps, caps[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            placement_cap(1.5, default_params())
        with pytest.raises(ValueError):
            placement_cap(np.array([0.2, math.nan]), default_params())

    def test_array_matches_scalar(self):
        # The cap and both secrecy maps take a scalar (giving a float) or an
        # array of values in [0, 1], and agree entry by entry bit for bit:
        # the exact map integrates each entry on its own row of fixed nodes.
        params = default_params()
        levels = np.array([0.0, 0.01, 0.2, 0.5, 0.9, 1.0])
        for unit_map in (
            placement_cap,
            secrecy_probability_lower_bound,
            secrecy_probability_exact,
        ):
            values = unit_map(levels, params)
            assert isinstance(values, np.ndarray)
            scalars = [unit_map(float(e), params) for e in levels]
            assert all(type(v) is float for v in scalars)
            assert values.tolist() == scalars
            assert unit_map(levels.reshape(2, 3), params).tolist() == (
                values.reshape(2, 3).tolist()
            )
            with pytest.raises(ValueError):
                unit_map(np.array([0.5, 1.5]), params)
        # The exact map evaluates files in blocks; entries on either side of a
        # block boundary are still the scalar values.
        p = np.linspace(0.0, 1.0, 2 * analytic._DE_BLOCK + 1)
        values = secrecy_probability_exact(p, params)
        for i in [1, analytic._DE_BLOCK, analytic._DE_BLOCK + 1, p.size - 1]:
            assert values[i] == secrecy_probability_exact(float(p[i]), params)

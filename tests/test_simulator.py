"""Tests for the Monte Carlo network simulator."""

import math

import numpy as np
import pytest

from cacheplace.analytic import NetworkParams, conditional_hit_probability, db_to_linear
from cacheplace.catalog import PlacementPolicy, make_catalog
from cacheplace.simulator import (
    SimConfig,
    SimEstimate,
    SimulationConfigError,
    _trial_rng,
    _window_radius,
    sample_ppp,
    simulate_file_hit,
    simulate_file_secrecy,
    simulate_hit,
)

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


class TestSamplePpp:
    def test_zero_density_is_empty(self):
        rng = np.random.default_rng(0)
        points = sample_ppp(0.0, 1000.0, rng)
        assert points.shape == (0, 2)

    def test_mean_count(self):
        rng = np.random.default_rng(1)
        radius = 16_000.0
        expected = BS_DENSITY * math.pi * radius**2
        counts = [len(sample_ppp(BS_DENSITY, radius, rng)) for _ in range(3000)]
        assert np.mean(counts) == pytest.approx(expected, rel=0.02)

    def test_points_inside_disk(self):
        rng = np.random.default_rng(2)
        points = sample_ppp(1e-4, 500.0, rng)
        assert np.all(points[:, 0] ** 2 + points[:, 1] ** 2 <= 500.0**2 + 1e-9)

    def test_seed_determinism(self):
        a = sample_ppp(BS_DENSITY, 5000.0, np.random.default_rng(7))
        b = sample_ppp(BS_DENSITY, 5000.0, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_domain_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_ppp(-1.0, 100.0, rng)
        with pytest.raises(ValueError):
            sample_ppp(1.0, 0.0, rng)


class TestConfigAndEstimate:
    def test_invalid_configs(self):
        with pytest.raises(SimulationConfigError):
            SimConfig(trials=0)
        with pytest.raises(SimulationConfigError):
            SimConfig(seed=-1)

    def test_window_must_exceed_guard_radius(self):
        cfg = SimConfig(trials=1, window_radius=100.0)
        with pytest.raises(SimulationConfigError):
            simulate_file_secrecy([0.5], default_params(), cfg)

    def test_estimate_halfwidth(self):
        est = SimEstimate.from_mean(0.5, 10_000)
        assert est.ci95_halfwidth == pytest.approx(1.96 * 0.005, rel=1e-12)
        assert SimEstimate.from_mean(0.0, 100).ci95_halfwidth == 0.0


class TestSimulateHit:
    def test_zero_policy_never_hits(self):
        cat = make_catalog(3, 0.7, [0.0] * 3, 1)
        result = simulate_hit(
            PlacementPolicy.uniform(3, 0.0), cat, default_params(), SimConfig(trials=50)
        )
        assert result.aggregate.estimate == 0.0
        assert all(e.estimate == 0.0 for e in result.per_file)

    def test_classical_coverage_value(self):
        # One always-cached file, no eavesdroppers, alpha=4, gamma=1: the hit
        # probability is the classical 1/(1 + pi/4) coverage result.
        params = default_params(
            alpha=4.0, eaves_density=0.0, guard_radius=0.0, gamma_u=1.0
        )
        cat = make_catalog(2, 0.7, [0.0, 0.0], 1)
        policy = PlacementPolicy(np.array([1.0, 0.0]), cache_size=1)
        cfg = SimConfig(trials=20_000, seed=42)
        result = simulate_hit(policy, cat, params, cfg)
        expected = 1.0 / (1.0 + math.pi / 4.0)
        assert abs(result.per_file[0].estimate - expected) <= max(
            result.per_file[0].ci95_halfwidth, 0.01
        )
        assert result.per_file[1].estimate == 0.0

    def test_matches_closed_form_with_guard_zones(self):
        params = default_params()
        cat = make_catalog(2, 0.0, [0.0, 0.0], 1)
        policy = PlacementPolicy(np.array([0.5, 0.5]), cache_size=1)
        cfg = SimConfig(trials=20_000, seed=5)
        result = simulate_hit(policy, cat, params, cfg)
        analytic = conditional_hit_probability(0.5, params)
        for est in result.per_file:
            assert abs(est.estimate - analytic) <= max(est.ci95_halfwidth, 0.01)

    def test_monotone_in_placement_probability(self):
        # Common random numbers across runs with the same seed make the hit
        # indicator monotone in p trial by trial.
        params = default_params()
        cat = make_catalog(2, 0.0, [0.0, 0.0], 1)
        cfg = SimConfig(trials=2_000, seed=13)
        estimates = []
        for p in [0.2, 0.5, 1.0]:
            policy = PlacementPolicy(np.array([p, 0.0]))
            estimates.append(
                simulate_hit(policy, cat, params, cfg).per_file[0].estimate
            )
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_deterministic_for_fixed_seed(self):
        params = default_params()
        cat = make_catalog(2, 0.7, [0.0, 0.0], 1)
        policy = PlacementPolicy(np.array([0.6, 0.2]), cache_size=1)
        cfg = SimConfig(trials=300, seed=99)
        a = simulate_hit(policy, cat, params, cfg)
        b = simulate_hit(policy, cat, params, cfg)
        assert a == b

    def test_policy_length_mismatch(self):
        cat = make_catalog(3, 0.7, [0.0] * 3, 1)
        with pytest.raises(ValueError):
            simulate_hit(
                PlacementPolicy.uniform(2, 0.5),
                cat,
                default_params(),
                SimConfig(trials=1),
            )


def per_file_reference(p, params, cfg, exclusion_radius, threshold):
    """Per-file success counts: each scene drawn here and walked once per file."""
    radius = _window_radius(params, cfg)
    alpha = params.alpha
    tail_mean = (
        2.0 * math.pi * params.bs_density * radius ** (2.0 - alpha) / (alpha - 2.0)
    )
    excluded = -1.0 if exclusion_radius is None else exclusion_radius**2
    counts = np.zeros(len(p))
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        bs = sample_ppp(params.bs_density, radius, rng)
        eav = sample_ppp(params.eaves_density, radius, rng)
        fade = rng.exponential(size=len(bs))
        cache_u = rng.random(len(bs))
        dist2 = bs[:, 0] ** 2 + bs[:, 1] ** 2
        power = fade * dist2 ** (-alpha / 2.0)
        total_power = float(power.sum()) + tail_mean
        for i, p_i in enumerate(p):
            for b in np.argsort(dist2):
                if cache_u[b] >= p_i or dist2[b] <= excluded:
                    continue
                gap2 = ((eav - bs[b]) ** 2).sum(axis=1)
                if np.any(gap2 < params.guard_radius**2):
                    continue  # muted by its guard zone
                counts[i] += power[b] > threshold * (total_power - power[b])
                break
    return counts


def test_shared_walk_matches_per_file_reference():
    params = default_params(guard_radius=600.0)
    cat = make_catalog(7, 0.7, [0.0] * 7, 3)
    p = np.array([0.05, 0.6, 0.0, 1.0, 0.6, 0.3, 0.9])
    cfg = SimConfig(trials=60, seed=4)
    hits = per_file_reference(p, params, cfg, None, params.gamma_u)
    wiretapped = per_file_reference(p, params, cfg, params.guard_radius, params.gamma_e)
    result = simulate_hit(PlacementPolicy(p), cat, params, cfg)
    assert [e.estimate for e in result.per_file] == list(hits / cfg.trials)
    assert simulate_file_hit(p, params, cfg) == result.per_file
    secrecy = simulate_file_secrecy(p, params, cfg)
    assert [e.estimate for e in secrecy] == list((cfg.trials - wiretapped) / cfg.trials)


class TestSimulateSecrecy:
    def test_uncached_file_is_always_secret(self):
        (est,) = simulate_file_secrecy([0.0], default_params(), SimConfig(trials=100))
        assert est.estimate == 1.0
        assert est.ci95_halfwidth == 0.0

    def test_all_uncached_draws_no_scene(self, monkeypatch):
        def no_scene(*args):
            raise AssertionError("a scene was sampled")

        monkeypatch.setattr("cacheplace.simulator.sample_ppp", no_scene)
        params, cfg = default_params(), SimConfig(trials=100)
        estimates = simulate_file_secrecy(np.zeros(3), params, cfg)
        assert estimates == (SimEstimate(1.0, 100, 0.0),) * 3
        assert simulate_file_hit(np.zeros(3), params, cfg) == (
            SimEstimate(0.0, 100, 0.0),
        ) * 3

    def test_huge_eaves_threshold_gives_secrecy(self):
        # gamma_e = +60 dB is unreachable for any interfered eavesdropper.
        params = default_params(gamma_e=db_to_linear(60.0))
        (est,) = simulate_file_secrecy([1.0], params, SimConfig(trials=2_000, seed=8))
        assert est.estimate == pytest.approx(1.0, abs=0.005)

    def test_monotone_decreasing_in_placement(self):
        # All files share each trial's scene, so the secrecy indicator is
        # monotone in p trial by trial.
        params = default_params()
        cfg = SimConfig(trials=4_000, seed=21)
        estimates = simulate_file_secrecy([0.2, 0.5, 1.0], params, cfg)
        values = [e.estimate for e in estimates]
        assert values[0] >= values[1] >= values[2]

    def test_entry_matches_single_file_call(self):
        # A scene's draws do not depend on p, so each entry of a multi-file
        # call equals a one-file call at the same seed, bit for bit.
        params = default_params()
        cfg = SimConfig(trials=300, seed=31)
        p = [0.7, 0.0, 0.2, 1.0, 0.2, 0.45]
        for simulate in (simulate_file_secrecy, simulate_file_hit):
            together = simulate(p, params, cfg)
            assert together == tuple(simulate([p_i], params, cfg)[0] for p_i in p)

    def test_window_size_stability(self):
        # Doubling the observation window must not shift the estimate by
        # more than the combined Monte Carlo uncertainty.
        params = default_params()
        (base,) = simulate_file_secrecy([0.5], params, SimConfig(trials=4_000, seed=17))
        (wide,) = simulate_file_secrecy(
            [0.5],
            params,
            SimConfig(trials=4_000, seed=17, window_radius=28_540.0),
        )
        assert abs(base.estimate - wide.estimate) <= (
            base.ci95_halfwidth + wide.ci95_halfwidth
        )

    def test_domain_error(self):
        for simulate in (simulate_file_secrecy, simulate_file_hit):
            for p in ([1.3], [0.5, float("nan")], 0.5):
                with pytest.raises(ValueError):
                    simulate(p, default_params(), SimConfig(trials=1))

"""Tests for the Monte Carlo network simulator."""

import math

import numpy as np
import pytest

from cacheplace import simulator
from cacheplace.analytic import NetworkParams, conditional_hit_probability, db_to_linear
from cacheplace.simulator import (
    SimConfig,
    SimEstimate,
    SimulationConfigError,
    _block_rows,
    _draw_block,
    _scene_blocks,
    simulate_file_hit,
    simulate_file_secrecy,
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


class TestBlockDraw:
    RADIUS = 5_000.0

    def draw(self, seed, rows=3_000, **overrides):
        rng = np.random.default_rng(seed)
        return _draw_block(rng, default_params(**overrides), self.RADIUS, rows)

    def test_zero_density_is_empty(self):
        *_, eav = self.draw(0, rows=5, eaves_density=0.0)
        assert eav.shape == (5, 0)

    def test_mean_count(self):
        dist2, cache_u, _, _, eav = self.draw(1)
        area = math.pi * self.RADIUS**2
        counts = np.isfinite(dist2).sum(axis=1)
        assert np.mean(counts) == pytest.approx(BS_DENSITY * area, rel=0.02)
        eav_counts = np.isfinite(eav).sum(axis=1)
        assert np.mean(eav_counts) == pytest.approx(BS_DENSITY / 5.0 * area, rel=0.03)
        # Padding caches no file.
        assert np.array_equal(np.isfinite(cache_u), np.isfinite(dist2))
        real = cache_u[np.isfinite(cache_u)]
        assert np.all((real >= 0.0) & (real < 1.0))

    def test_distance_order_inside_window(self):
        dist2, _, _, angle, eav = self.draw(2)
        for row in dist2:
            real = row[np.isfinite(row)]
            assert np.all(np.diff(real) >= 0.0)
            assert np.all(np.isinf(row[len(real):]))  # padding trails the row
        finite = dist2[np.isfinite(dist2)]
        assert finite.min() > 0.0 and finite.max() <= self.RADIUS**2 * (1.0 + 1e-12)
        assert np.all((angle >= 0.0) & (angle < 2.0 * math.pi))
        assert np.all(np.abs(eav[np.isfinite(eav)]) <= self.RADIUS)

    def test_mean_nearest_distance(self):
        # The nearest of a PPP has r^2 exponential with mean 1 / (lambda pi).
        dist2, _, _, _, _ = self.draw(3)
        nearest = dist2[:, 0]
        stderr = nearest.std() / math.sqrt(len(nearest))
        assert abs(nearest.mean() - 1.0 / (BS_DENSITY * math.pi)) <= 3.0 * stderr

    def test_seed_determinism(self):
        a, b = self.draw(7, rows=20), self.draw(7, rows=20)
        for x, y in zip(a, b):
            assert np.array_equal(x, y, equal_nan=True)
        c = self.draw(8, rows=20)
        assert not np.array_equal(a[0], c[0])

    def test_blocks_are_keyed_on_seed_and_index(self):
        params = default_params()
        radius = simulator._window_radius(params)
        rows = _block_rows(params, radius)
        assert rows == 16  # 2^14 draws over 1000 expected BSs per trial
        whole = list(_scene_blocks(params, radius, 5, 2 * rows + 3))
        assert [len(block[0]) for block in whole] == [rows, rows, 3]
        # A block depends on its own key, not on the blocks before it.
        again = list(_scene_blocks(params, radius, 5, 2 * rows))
        assert np.array_equal(whole[1][0], again[1][0])
        other = list(_scene_blocks(params, radius, 6, 2 * rows))
        assert not np.array_equal(whole[1][0], other[1][0])


class TestConfigAndEstimate:
    def test_invalid_configs(self):
        with pytest.raises(SimulationConfigError):
            SimConfig(trials=0)
        with pytest.raises(SimulationConfigError):
            SimConfig(seed=-1)

    def test_scene_must_fit_in_memory(self):
        # 1000 eavesdroppers per BS would put ~1.3e6 points in each trial.
        params = default_params(eaves_density=1000.0 * BS_DENSITY)
        with pytest.raises(SimulationConfigError, match="fit in memory"):
            simulate_file_hit([0.5], params, SimConfig(trials=1))

    def test_estimate_halfwidth(self):
        est = SimEstimate.from_mean(0.5, 10_000)
        assert est.ci95_halfwidth == pytest.approx(1.96 * 0.005, rel=1e-12)
        assert SimEstimate.from_mean(0.0, 100).ci95_halfwidth == 0.0


class TestSimulateHit:
    def test_zero_policy_never_hits(self):
        result = simulate_file_hit(np.zeros(3), default_params(), SimConfig(trials=50))
        assert all(e.estimate == 0.0 for e in result)

    def test_classical_coverage_value(self):
        # One always-cached file, no eavesdroppers, alpha=4, gamma=1: the hit
        # probability is the classical 1/(1 + pi/4) coverage result.
        params = default_params(
            alpha=4.0, eaves_density=0.0, guard_radius=0.0, gamma_u=1.0
        )
        cfg = SimConfig(trials=20_000, seed=42)
        cached, uncached = simulate_file_hit([1.0, 0.0], params, cfg)
        expected = 1.0 / (1.0 + math.pi / 4.0)
        assert abs(cached.estimate - expected) <= max(cached.ci95_halfwidth, 0.01)
        assert uncached.estimate == 0.0

    def test_matches_closed_form_with_guard_zones(self):
        params = default_params()
        cfg = SimConfig(trials=20_000, seed=5)
        result = simulate_file_hit([0.5, 0.5], params, cfg)
        analytic = conditional_hit_probability(0.5, params)
        for est in result:
            assert abs(est.estimate - analytic) <= max(est.ci95_halfwidth, 0.01)

    def test_monotone_in_placement_probability(self):
        # Common random numbers across runs with the same seed make the hit
        # indicator monotone in p trial by trial.
        params = default_params()
        cfg = SimConfig(trials=2_000, seed=13)
        estimates = [
            simulate_file_hit([p, 0.0], params, cfg)[0].estimate
            for p in [0.2, 0.5, 1.0]
        ]
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_deterministic_for_fixed_seed(self):
        params = default_params()
        cfg = SimConfig(trials=300, seed=99)
        a = simulate_file_hit([0.6, 0.2], params, cfg)
        b = simulate_file_hit([0.6, 0.2], params, cfg)
        assert a == b


def per_file_reference(p, params, cfg, exclusion_radius, threshold):
    """Per-file success counts: each scene drawn here and walked once per file.

    The radius is read through the module, so a test that patches
    simulator._window_radius patches it here too.
    """
    radius = simulator._window_radius(params)
    alpha = params.alpha
    tail_mean = (
        2.0 * math.pi * params.bs_density * radius ** (2.0 - alpha) / (alpha - 2.0)
    )
    excluded = -1.0 if exclusion_radius is None else exclusion_radius**2
    counts = np.zeros(len(p))
    for dist2, cache_u, fade, angle, eav in _scene_blocks(
        params, radius, cfg.seed, cfg.trials
    ):
        power = fade * dist2 ** (-alpha / 2.0)
        for trial in range(len(dist2)):
            total_power = power[trial].sum() + tail_mean
            for i, p_i in enumerate(p):
                # The row is in distance order; padding never caches.
                for b in range(dist2.shape[1]):
                    if cache_u[trial, b] >= p_i or dist2[trial, b] <= excluded:
                        continue
                    position = np.sqrt(dist2[trial, b]) * np.exp(1j * angle[trial, b])
                    if np.any(np.abs(eav[trial] - position) < params.guard_radius):
                        continue  # muted by its guard zone
                    signal = power[trial, b]
                    counts[i] += signal > threshold * (total_power - signal)
                    break
    return counts


def assert_matches_reference(p, params, cfg):
    hits = per_file_reference(p, params, cfg, None, params.gamma_u)
    wiretapped = per_file_reference(p, params, cfg, params.guard_radius, params.gamma_e)
    assert [e.estimate for e in simulate_file_hit(p, params, cfg)] == list(
        hits / cfg.trials
    )
    secrecy = simulate_file_secrecy(p, params, cfg)
    assert [e.estimate for e in secrecy] == list((cfg.trials - wiretapped) / cfg.trials)


def test_shared_walk_matches_per_file_reference():
    params = default_params(guard_radius=600.0)
    p = np.array([0.05, 0.6, 0.0, 1.0, 0.6, 0.3, 0.9])
    cfg = SimConfig(trials=60, seed=4)
    assert_matches_reference(p, params, cfg)


@pytest.mark.parametrize("trials", [1, 15, 17, 49])
def test_block_boundaries_match_reference(trials):
    # 1, B - 1, B + 1 and 3B + 1 trials, at B = 16 rows per block.
    params = default_params(guard_radius=600.0)
    cfg = SimConfig(trials=trials, seed=11)
    assert_matches_reference(np.array([0.1, 0.8, 0.35]), params, cfg)


def test_sparse_window_matches_reference(monkeypatch):
    # About 0.44 BSs per window: most rows of a block are empty padding.
    monkeypatch.setattr(simulator, "_window_radius", lambda params: 300.0)
    cfg = SimConfig(trials=40, seed=9)
    assert_matches_reference(np.array([0.3, 1.0]), default_params(), cfg)


def test_rare_files_match_reference():
    # Rare files are served far out, past the walk's first columns; at
    # -50 dB thresholds such distant servers still clear the SIR test.
    params = default_params(gamma_u=db_to_linear(-50.0), gamma_e=db_to_linear(-50.0))
    cfg = SimConfig(trials=20, seed=3)
    assert_matches_reference(np.array([0.002, 0.02, 1.0]), params, cfg)


class TestSimulateSecrecy:
    def test_uncached_file_is_always_secret(self):
        (est,) = simulate_file_secrecy([0.0], default_params(), SimConfig(trials=100))
        assert est.estimate == 1.0
        assert est.ci95_halfwidth == 0.0

    def test_all_uncached_draws_no_scene(self, monkeypatch):
        def no_scene(*args):
            raise AssertionError("a scene was sampled")

        monkeypatch.setattr("cacheplace.simulator._draw_block", no_scene)
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

    def test_window_size_stability(self, monkeypatch):
        # Doubling the observation window must not shift the estimate by
        # more than the combined Monte Carlo uncertainty.
        params = default_params()
        cfg = SimConfig(trials=4_000, seed=17)
        (base,) = simulate_file_secrecy([0.5], params, cfg)
        monkeypatch.setattr(simulator, "_window_radius", lambda params: 28_540.0)
        (wide,) = simulate_file_secrecy([0.5], params, cfg)
        assert abs(base.estimate - wide.estimate) <= (
            base.ci95_halfwidth + wide.ci95_halfwidth
        )

    def test_domain_error(self):
        for simulate in (simulate_file_secrecy, simulate_file_hit):
            for p in ([1.3], [0.5, float("nan")], 0.5):
                with pytest.raises(ValueError):
                    simulate(p, default_params(), SimConfig(trials=1))

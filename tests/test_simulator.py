"""Tests for the Monte Carlo network simulator."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special

from cacheplace import simulator
from cacheplace.analytic import NetworkParams, conditional_hit_probability, db_to_linear
from cacheplace.simulator import (
    SimConfig,
    SimEstimate,
    SimulationConfigError,
    _draw_chunk,
    _far_field,
    simulate_file_hit,
    simulate_file_secrecy,
)

BS_DENSITY = 1.0 / 800.0**2
LAM_PI = math.pi * BS_DENSITY


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


def draw_chunks(seed, block, chunks, rows, params):
    """The first `chunks` chunks of a block, each continuing the one before."""
    drawn, start = [], np.zeros(rows)
    for chunk in range(chunks):
        drawn.append(_draw_chunk(seed, block, chunk, params, start))
        start = drawn[-1][0][:, -1]
    return drawn


class TestBlockDraw:
    def draw(self, seed, rows=3_000, chunks=2, **overrides):
        return draw_chunks(seed, 0, chunks, rows, default_params(**overrides))

    def test_zero_density_is_empty(self):
        (*_, eav), = self.draw(0, rows=5, chunks=1, eaves_density=0.0)
        assert eav.shape == (5, 0)

    def test_mean_count(self):
        # Each chunk adds _CHUNK BSs per row, and a Poisson number of
        # eavesdroppers with mean lambda_e times the area of its annulus.
        params = default_params()
        inner2 = np.zeros(3_000)
        for s, cache_u, _, eav in self.draw(1):
            assert s.shape == cache_u.shape == (3_000, simulator._CHUNK)
            outer2 = (np.sqrt(s[:, -1] / LAM_PI) + params.guard_radius) ** 2
            mean = params.eaves_density * math.pi * (outer2 - inner2)
            counts = np.isfinite(eav).sum(axis=1)
            assert np.mean(counts) == pytest.approx(np.mean(mean), rel=0.03)
            assert np.all((cache_u >= 0.0) & (cache_u < 1.0))
            inner2 = outer2

    def test_distance_order_inside_window(self):
        # Distances increase along a row and across chunks, and a chunk's
        # eavesdroppers lie in its annulus (rho_prev + D, rho + D].
        guard = default_params().guard_radius
        (s0, _, angle, eav0), (s1, _, _, eav1) = self.draw(2)
        row = np.hstack([s0, s1])
        assert np.all(np.diff(row, axis=1) > 0.0) and np.all(row[:, 0] > 0.0)
        assert np.all((angle >= 0.0) & (angle < 2.0 * math.pi))
        rho0, rho1 = np.sqrt(s0[:, -1] / LAM_PI), np.sqrt(s1[:, -1] / LAM_PI)
        for eav, inner, outer in ((eav0, 0.0, rho0 + guard), (eav1, rho0 + guard, rho1 + guard)):
            radius = np.where(np.isfinite(eav), np.abs(eav), np.nan)
            real = np.isfinite(radius)
            assert np.all(np.isnan(radius[:, 1:]) >= np.isnan(radius[:, :-1]))  # padding trails
            outer = np.broadcast_to(np.reshape(outer, (-1, 1)), radius.shape)
            inner = np.broadcast_to(np.reshape(inner, (-1, 1)), radius.shape)
            assert np.all(radius[real] <= outer[real] * (1.0 + 1e-12))
            assert np.all(radius[real] >= inner[real] * (1.0 - 1e-12))

    def test_mean_nearest_distance(self):
        # The nearest of a PPP has r^2 exponential with mean 1 / (lambda pi).
        ((s, *_),) = self.draw(3, chunks=1)
        nearest = s[:, 0] / LAM_PI
        stderr = nearest.std() / math.sqrt(len(nearest))
        assert abs(nearest.mean() - 1.0 / (BS_DENSITY * math.pi)) <= 3.0 * stderr

    def test_seed_determinism(self):
        a, b = self.draw(7, rows=20), self.draw(7, rows=20)
        for chunk_a, chunk_b in zip(a, b):
            for x, y in zip(chunk_a, chunk_b):
                assert np.array_equal(x, y, equal_nan=True)
        c = self.draw(8, rows=20)
        assert not np.array_equal(a[0][0], c[0][0])

    def test_blocks_are_keyed_on_seed_and_index(self, monkeypatch):
        assert simulator._BLOCK_ROWS == 256  # 2^14 BSs per chunk of a block
        params, start = default_params(), np.zeros(4)
        key = _draw_chunk(5, 1, 1, params, start)[1]
        assert np.array_equal(key, _draw_chunk(5, 1, 1, params, start)[1])
        for other in ((6, 1, 1), (5, 2, 1), (5, 1, 0)):
            assert not np.array_equal(key, _draw_chunk(*other, params, start)[1])
        # Blocks of 256 rows, a short last one, each drawing its chunks in
        # order; every row of a block gets each chunk.
        calls = []

        def spy(seed, block, chunk, params, start):
            calls.append((seed, block, chunk, len(start)))
            return draw(seed, block, chunk, params, start)

        draw = simulator._draw_chunk
        monkeypatch.setattr(simulator, "_draw_chunk", spy)
        simulate_file_hit([0.5], params, SimConfig(trials=2 * 256 + 3, seed=5))
        assert {(seed, block, rows) for seed, block, _, rows in calls} == {
            (5, 0, 256), (5, 1, 256), (5, 2, 3)
        }
        for block in range(3):
            chunks = [chunk for _, b, chunk, _ in calls if b == block]
            assert chunks == list(range(len(chunks)))


class TestConfigAndEstimate:
    def test_invalid_configs(self):
        with pytest.raises(SimulationConfigError):
            SimConfig(trials=0)
        with pytest.raises(SimulationConfigError):
            SimConfig(seed=-1)

    def test_scene_must_fit_in_memory(self):
        # 1000 eavesdroppers per BS would put ~1.8e7 points in a first chunk.
        params = default_params(eaves_density=1000.0 * BS_DENSITY)
        with pytest.raises(SimulationConfigError, match="fit in memory"):
            simulate_file_hit([0.5], params, SimConfig(trials=1))

    def test_estimate_halfwidth(self):
        est = SimEstimate.from_mean(0.5, 10_000)
        assert est.ci95_halfwidth == pytest.approx(1.96 * 0.005, rel=1e-12)
        assert SimEstimate.from_mean(0.0, 100).ci95_halfwidth == 0.0

    def test_exact_halfwidth_at_zero_or_all_successes(self):
        # At an estimate of 0 or 1 the sample variance is 0; a simulated file
        # there gets the exact Clopper-Pearson one, 1 - 0.025^(1/n). Files with
        # p = 0 are exact (hit 0, secrecy 1) and keep a zero half-width.
        params, cfg = default_params(), SimConfig(trials=5, seed=2)
        exact = 1.0 - 0.025 ** (1.0 / 5)
        hit = simulate_file_hit([1e-9, 0.0], params, cfg)
        assert hit.estimate.tolist() == [0.0, 0.0]
        assert hit.ci95_halfwidth.tolist() == [exact, 0.0]
        secrecy = simulate_file_secrecy([1e-9, 0.0], params, cfg)
        assert secrecy.estimate.tolist() == [1.0, 1.0]
        assert secrecy.ci95_halfwidth.tolist() == [exact, 0.0]
        assert exact > 0.5

    def test_wald_halfwidth_between_the_edges(self):
        # 1.96 s / sqrt(n), with s the sample deviation of the trials' values.
        params, cfg = default_params(), SimConfig(trials=400, seed=3)
        est = simulate_file_hit([0.5], params, cfg)
        values = np.nan_to_num(per_trial_reference([0.5], params, cfg, None, params.gamma_u))
        assert 0.0 < est.estimate[0] < 1.0
        assert est.ci95_halfwidth[0] == pytest.approx(
            1.96 * values[:, 0].std(ddof=1) / math.sqrt(400), rel=1e-9
        )

    def test_single_trial_halfwidth(self):
        # One trial has no sample variance; m (1 - m) bounds it.
        est = simulate_file_hit([1.0], default_params(), SimConfig(trials=1, seed=4))
        m = est.estimate[0]
        assert 0.0 < m < 1.0
        assert est.ci95_halfwidth[0] == 1.96 * math.sqrt(m * (1.0 - m))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", math.inf),
            ("trials", math.nan),
            ("trials", 2.5),
            ("trials", 2.0),
            ("trials", True),
            ("trials", "10"),
            ("seed", 1.5),
            ("seed", math.nan),
            ("seed", False),
        ],
    )
    def test_config_rejects_non_integer(self, field, value):
        with pytest.raises(SimulationConfigError, match=f"{field} must be an integer"):
            SimConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = SimConfig(trials=np.int64(3), seed=np.uint64(2**64 - 1))
        assert simulate_file_hit([0.5], default_params(), cfg).trials == 3


@pytest.mark.parametrize("alpha", [2.2, 3.0, 4.0])
def test_far_field_matches_pgfl_quadrature(alpha):
    # -log E prod_{r_j > rho} 1 / (1 + theta (r_s / r_j)^alpha) for a PPP
    # outside rho is the integral over sigma = pi lam r^2 > s_last of
    # 1 - 1 / (1 + x (s_last / sigma)^(alpha / 2)); with
    # t = (sigma / s_last)^(1 - alpha / 2) it becomes a finite integral.
    k = alpha / 2.0
    s_last = 70.0
    for x in [1e-4, 0.03, 0.3162, 1.0, 5.0, 300.0]:
        integral, _ = integrate.quad(
            lambda t: x / ((k - 1.0) * (1.0 + x * t ** (k / (k - 1.0)))),
            0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert _far_field(np.array([x]), s_last, alpha)[0] == pytest.approx(
            s_last * integral, rel=1e-10
        )


class TestSimulateHit:
    def test_zero_policy_never_hits(self):
        result = simulate_file_hit(np.zeros(3), default_params(), SimConfig(trials=50))
        assert np.all(result.estimate == 0.0)

    def test_classical_coverage_value(self):
        # One always-cached file, no eavesdroppers, alpha=4, gamma=1: the hit
        # probability is the classical 1/(1 + pi/4) coverage result.
        params = default_params(
            alpha=4.0, eaves_density=0.0, guard_radius=0.0, gamma_u=1.0
        )
        cfg = SimConfig(trials=20_000, seed=42)
        result = simulate_file_hit([1.0, 0.0], params, cfg)
        expected = 1.0 / (1.0 + math.pi / 4.0)
        gap = abs(result.estimate[0] - expected)
        assert gap <= max(result.ci95_halfwidth[0], 0.01)
        assert result.estimate[1] == 0.0

    def test_matches_closed_form_with_guard_zones(self):
        params = default_params()
        cfg = SimConfig(trials=20_000, seed=5)
        result = simulate_file_hit([0.5, 0.5], params, cfg)
        analytic = conditional_hit_probability(0.5, params)
        for est, ci in zip(result.estimate, result.ci95_halfwidth):
            assert abs(est - analytic) <= max(ci, 0.01)

    def test_monotone_in_placement_probability(self):
        # A larger p is served by the same or a nearer BS of the same scenes.
        params = default_params()
        cfg = SimConfig(trials=2_000, seed=13)
        estimates = [
            simulate_file_hit([p, 0.0], params, cfg).estimate[0]
            for p in [0.2, 0.5, 1.0]
        ]
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_deterministic_for_fixed_seed(self):
        params = default_params()
        cfg = SimConfig(trials=300, seed=99)
        a = simulate_file_hit([0.6, 0.2], params, cfg)
        b = simulate_file_hit([0.6, 0.2], params, cfg)
        assert_same_estimates(a, b)


def assert_same_estimates(a, b):
    assert a.trials == b.trials
    assert np.array_equal(a.estimate, b.estimate)
    assert np.array_equal(a.ci95_halfwidth, b.ci95_halfwidth)


def per_trial_reference(p, params, cfg, exclusion_radius, threshold):
    """Per trial and file, the success value of the serving BS, nan if none.

    The scenes are the simulator's chunk draws, drawn here as far as a walk
    needs them; each file is walked BS by BS, and its product over the BSs
    drawn through the server's chunk and its generating-functional tail are
    computed here. The reach is read through the module, so a test that
    patches simulator._reach patches it here too.
    """
    reach = simulator._reach(params)
    alpha, chunk_size = params.alpha, simulator._CHUNK
    delta = 2.0 / alpha
    excluded = -1.0 if exclusion_radius is None else LAM_PI * exclusion_radius**2
    values = np.full((cfg.trials, len(p)), np.nan)
    for block, first in enumerate(range(0, cfg.trials, simulator._BLOCK_ROWS)):
        rows = min(simulator._BLOCK_ROWS, cfg.trials - first)
        chunks = []

        def chunk(c):
            while len(chunks) <= c:
                start = chunks[-1][0][:, -1] if chunks else np.zeros(rows)
                chunks.append(_draw_chunk(cfg.seed, block, len(chunks), params, start))
            return chunks[c]

        for trial in range(rows):
            for i, p_i in enumerate(p):
                for k in itertools.count():
                    c, col = divmod(k, chunk_size)
                    s, cache_u, angle, _ = chunk(c)
                    if s[trial, col] > reach:
                        break  # no server within reach
                    if cache_u[trial, col] >= p_i or s[trial, col] <= excluded:
                        continue
                    position = math.sqrt(s[trial, col] / LAM_PI) * np.exp(1j * angle[trial, col])
                    eav = np.concatenate([chunk(j)[3][trial] for j in range(c + 1)])
                    if np.any(np.abs(eav - position) < params.guard_radius):
                        continue  # muted by its guard zone
                    drawn = np.concatenate([chunk(j)[0][trial] for j in range(c + 1)])
                    others = np.delete(drawn, k)
                    product = np.prod(1.0 / (1.0 + threshold * (drawn[k] / others) ** (alpha / 2)))
                    x = threshold * (drawn[k] / drawn[-1]) ** (alpha / 2)
                    tail = drawn[-1] * 2.0 * x / (alpha - 2.0) * special.hyp2f1(
                        1.0, 1.0 - delta, 2.0 - delta, -x
                    )
                    values[first + trial, i] = product * math.exp(-tail)
                    break
    return values


def assert_estimates_match(est, scores, p):
    """An estimate against per-trial scores: mean, and 1.96 s / sqrt(n).

    The engine sums the values v, not the scores: a secrecy estimate
    1 - mean(v) is good to about 1e-16 absolute, and where the variance is
    tiny against the squared mean, a one-pass variance to about 1e-16 n.
    """
    n = len(scores)
    mean = scores.mean(axis=0)
    np.testing.assert_allclose(est.estimate, mean, rtol=1e-12, atol=1e-15)
    if n == 1:
        half = 1.96 * np.sqrt(mean * (1.0 - mean))
    else:
        half = 1.96 * scores.std(axis=0, ddof=1) / math.sqrt(n)
    edge = (np.asarray(p) > 0.0) & ((mean == 0.0) | (mean == 1.0))
    half = np.where(edge, 1.0 - 0.025 ** (1.0 / n), half)
    np.testing.assert_allclose(est.ci95_halfwidth, half, rtol=1e-9, atol=1e-10)


def assert_matches_reference(p, params, cfg):
    values = per_trial_reference(p, params, cfg, None, params.gamma_u)
    assert_estimates_match(simulate_file_hit(p, params, cfg), np.nan_to_num(values), p)
    values = per_trial_reference(p, params, cfg, params.guard_radius, params.gamma_e)
    secrecy = simulate_file_secrecy(p, params, cfg)
    assert_estimates_match(secrecy, 1.0 - np.nan_to_num(values), p)


def test_shared_walk_matches_per_file_reference():
    params = default_params(guard_radius=600.0)
    p = np.array([0.05, 0.6, 0.0, 1.0, 0.6, 0.3, 0.9])
    cfg = SimConfig(trials=60, seed=4)
    assert_matches_reference(p, params, cfg)


@pytest.mark.parametrize("trials", [1, 255, 257, 769])
def test_block_boundaries_match_reference(trials):
    # 1, B - 1, B + 1 and 3B + 1 trials, at B = 256 rows per block.
    params = default_params(guard_radius=600.0)
    cfg = SimConfig(trials=trials, seed=11)
    assert_matches_reference(np.array([0.1, 0.8, 0.35]), params, cfg)


def test_sparse_window_matches_reference(monkeypatch):
    # A reach of 3 expected BSs: many rows have no server within it.
    monkeypatch.setattr(simulator, "_reach", lambda params: 3.0)
    cfg = SimConfig(trials=40, seed=9)
    assert_matches_reference(np.array([0.3, 1.0]), default_params(), cfg)


def test_rare_files_match_reference():
    # Rare files are served far out, past the first chunks; at -50 dB
    # thresholds such distant servers still have non-negligible values.
    params = default_params(gamma_u=db_to_linear(-50.0), gamma_e=db_to_linear(-50.0))
    cfg = SimConfig(trials=20, seed=3)
    assert_matches_reference(np.array([0.002, 0.02, 1.0]), params, cfg)


def indicator_reference(p, params, trials, seed, exclusion_radius, threshold):
    """Per trial and file, the 0/1 SIR event with drawn fades, on a window.

    Independent of the simulator: each trial draws its BSs uniformly in a
    disk of 4000 expected BSs, their eavesdroppers in the disk widened by
    the guard radius, and unit-mean exponential fades; the interference
    beyond the window is replaced by its mean.
    """
    rng = np.random.default_rng(seed)
    alpha, guard = params.alpha, params.guard_radius
    window = math.sqrt(4000.0 / LAM_PI)
    tail = 2.0 * LAM_PI * window ** (2.0 - alpha) / (alpha - 2.0)
    excluded = -1.0 if exclusion_radius is None else exclusion_radius
    success = np.zeros((trials, len(p)))
    for trial in range(trials):
        radius = np.sort(window * np.sqrt(rng.random(rng.poisson(4000.0))))
        bs = radius * np.exp(2j * math.pi * rng.random(len(radius)))
        cache_u = rng.random(len(radius))
        power = rng.standard_exponential(len(radius)) * radius ** -alpha
        total = power.sum() + tail
        count = rng.poisson(params.eaves_density * math.pi * (window + guard) ** 2)
        eav = (window + guard) * np.sqrt(rng.random(count)) * np.exp(
            2j * math.pi * rng.random(count)
        )
        for i, p_i in enumerate(p):
            for b in np.flatnonzero((cache_u < p_i) & (radius > excluded)):
                if not np.any(np.abs(eav - bs[b]) < guard):
                    success[trial, i] = power[b] > threshold * (total - power[b])
                    break
    return success


@pytest.mark.parametrize("guard_radius", [0.0, 200.0])
def test_agrees_with_indicator_reference(guard_radius):
    # The engine and a fade-drawing 0/1 estimator estimate the same
    # probabilities: they agree within their combined 95% half-widths.
    params = default_params(guard_radius=guard_radius)
    p = np.array([0.2, 1.0])
    trials = 2_000
    for simulate, exclusion, threshold, flip in (
        (simulate_file_hit, None, params.gamma_u, False),
        (simulate_file_secrecy, guard_radius, params.gamma_e, True),
    ):
        est = simulate(p, params, SimConfig(trials=trials, seed=23))
        success = indicator_reference(p, params, trials, 29, exclusion, threshold)
        mean = 1.0 - success.mean(axis=0) if flip else success.mean(axis=0)
        half = 1.96 * np.sqrt(mean * (1.0 - mean) / trials)
        assert np.all(np.abs(est.estimate - mean) <= est.ci95_halfwidth + half)


class TestSimulateSecrecy:
    def test_uncached_file_is_always_secret(self):
        est = simulate_file_secrecy([0.0], default_params(), SimConfig(trials=100))
        assert est.estimate[0] == 1.0
        assert est.ci95_halfwidth[0] == 0.0

    def test_all_uncached_draws_no_scene(self, monkeypatch):
        def no_scene(*args):
            raise AssertionError("a scene was sampled")

        monkeypatch.setattr("cacheplace.simulator._draw_chunk", no_scene)
        params, cfg = default_params(), SimConfig(trials=100)
        estimates = simulate_file_secrecy(np.zeros(3), params, cfg)
        assert_same_estimates(estimates, SimEstimate(np.ones(3), 100, np.zeros(3)))
        assert_same_estimates(
            simulate_file_hit(np.zeros(3), params, cfg),
            SimEstimate(np.zeros(3), 100, np.zeros(3)),
        )

    def test_huge_eaves_threshold_gives_secrecy(self):
        # gamma_e = +60 dB is unreachable for any interfered eavesdropper.
        params = default_params(gamma_e=db_to_linear(60.0))
        est = simulate_file_secrecy([1.0], params, SimConfig(trials=2_000, seed=8))
        assert est.estimate[0] == pytest.approx(1.0, abs=0.005)

    def test_monotone_decreasing_in_placement(self):
        # A larger p is wiretapped from the same or a nearer BS of the same
        # scenes.
        params = default_params()
        cfg = SimConfig(trials=4_000, seed=21)
        values = simulate_file_secrecy([0.2, 0.5, 1.0], params, cfg).estimate
        assert values[0] >= values[1] >= values[2]

    def test_entry_matches_single_file_call(self):
        # A scene's draws do not depend on p, so each entry of a multi-file
        # call equals a one-file call at the same seed, bit for bit.
        params = default_params()
        cfg = SimConfig(trials=300, seed=31)
        p = [0.7, 0.0, 0.2, 1.0, 0.2, 0.45]
        for simulate in (simulate_file_secrecy, simulate_file_hit):
            together = simulate(p, params, cfg)
            alone = [simulate([p_i], params, cfg) for p_i in p]
            assert together.estimate.tolist() == [a.estimate[0] for a in alone]
            assert together.ci95_halfwidth.tolist() == [
                a.ci95_halfwidth[0] for a in alone
            ]

    def test_window_size_stability(self, monkeypatch):
        # The chunk is the draw's window of nearest BSs: 16 and 256 BSs per
        # chunk must agree within the combined Monte Carlo uncertainty.
        params = default_params()
        cfg = SimConfig(trials=4_000, seed=17)
        monkeypatch.setattr(simulator, "_CHUNK", 16)
        narrow = simulate_file_secrecy([0.5], params, cfg)
        monkeypatch.setattr(simulator, "_CHUNK", 256)
        wide = simulate_file_secrecy([0.5], params, cfg)
        assert abs(narrow.estimate[0] - wide.estimate[0]) <= (
            narrow.ci95_halfwidth[0] + wide.ci95_halfwidth[0]
        )

    def test_domain_error(self):
        for simulate in (simulate_file_secrecy, simulate_file_hit):
            for p in ([1.3], [0.5, float("nan")], 0.5):
                with pytest.raises(ValueError):
                    simulate(p, default_params(), SimConfig(trials=1))

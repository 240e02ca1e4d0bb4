"""Tests for the Monte Carlo network simulator."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from cacheplace import simulator
from cacheplace.analytic import (
    NetworkParams,
    conditional_hit_probability,
    db_to_linear,
    derive_constants,
    kappa2_at,
    secrecy_probability_exact,
)
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


def stream_seed(seed, stream):
    """The chunk key of a stream of a seed: 0 for hit scenes, 1 for secrecy."""
    key = np.random.SeedSequence([seed, stream])
    return int(key.generate_state(1, np.uint64)[0])


def draw_chunks(seed, block, chunks, rows, params):
    """The first `chunks` chunks of a block, each continuing the one before."""
    drawn, start = [], np.zeros(rows)
    for chunk in range(chunks):
        drawn.append(_draw_chunk(seed, block, chunk, params, start))
        start = drawn[-1][0][:, -1]
    return drawn


def row_eavesdroppers(table, t):
    """Row t's eavesdroppers in a chunk's guard table: none if it has no table."""
    if table is None:
        return np.empty(0, complex)
    key, position, scale = table
    lo, hi = np.searchsorted(key, [(t - 0.5) * scale, (t + 0.5) * scale])
    return position[lo:hi]


class TestBlockDraw:
    def draw(self, seed, rows=3_000, chunks=2, **overrides):
        return draw_chunks(seed, 0, chunks, rows, default_params(**overrides))

    def test_zero_density_is_empty(self):
        for overrides in (dict(eaves_density=0.0), dict(guard_radius=0.0)):
            (*_, table), = self.draw(0, rows=5, chunks=1, **overrides)
            assert table is None

    def test_mean_count(self):
        # Each chunk adds _CHUNK BSs per row, and a Poisson number of
        # eavesdroppers with mean lambda_e times the area of its annulus.
        params = default_params()
        inner2 = np.zeros(3_000)
        for s, cache_u, _, table in self.draw(1):
            assert s.shape == cache_u.shape == (3_000, simulator._CHUNK)
            outer2 = (np.sqrt(s[:, -1] / LAM_PI) + params.guard_radius) ** 2
            mean = params.eaves_density * math.pi * (outer2 - inner2)
            counts = [len(row_eavesdroppers(table, t)) for t in range(3_000)]
            assert sum(counts) == len(table[0])
            assert np.mean(counts) == pytest.approx(np.mean(mean), rel=0.03)
            assert np.all((cache_u >= 0.0) & (cache_u < 1.0))
            inner2 = outer2

    def test_distance_order_inside_window(self):
        # Distances increase along a row and across chunks, a chunk's
        # eavesdroppers lie in its annulus (rho_prev + D, rho + D], and its
        # table is sorted by row, then by distance from the origin.
        guard = default_params().guard_radius
        (s0, _, angle, table0), (s1, _, _, table1) = self.draw(2)
        row = np.hstack([s0, s1])
        assert np.all(np.diff(row, axis=1) > 0.0) and np.all(row[:, 0] > 0.0)
        assert np.all((angle >= 0.0) & (angle < 2.0 * math.pi))
        rho0, rho1 = np.sqrt(s0[:, -1] / LAM_PI), np.sqrt(s1[:, -1] / LAM_PI)
        for table, inner, outer in ((table0, np.zeros_like(rho0), rho0 + guard),
                                    (table1, rho0 + guard, rho1 + guard)):
            key, _, scale = table
            assert np.all(np.diff(key) >= 0.0)
            for t in range(len(s0)):
                radius = np.abs(row_eavesdroppers(table, t))
                assert np.all(radius <= outer[t] * (1.0 + 1e-12))
                assert np.all(radius >= inner[t] * (1.0 - 1e-12))
                assert 4.0 * (radius.max(initial=0.0) + guard) < scale

    def test_mean_nearest_distance(self):
        # The nearest of a PPP has r^2 exponential with mean 1 / (lambda pi).
        ((s, *_),) = self.draw(3, chunks=1)
        nearest = s[:, 0] / LAM_PI
        stderr = nearest.std() / math.sqrt(len(nearest))
        assert abs(nearest.mean() - 1.0 / (BS_DENSITY * math.pi)) <= 3.0 * stderr

    def test_seed_determinism(self):
        a, b = self.draw(7, rows=20), self.draw(7, rows=20)
        for (*arrays_a, table_a), (*arrays_b, table_b) in zip(a, b):
            for x, y in zip(arrays_a + list(table_a), arrays_b + list(table_b)):
                assert np.array_equal(x, y)
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
        hit = stream_seed(5, 0)
        assert {(seed, block, rows) for seed, block, _, rows in calls} == {
            (hit, 0, 256), (hit, 1, 256), (hit, 2, 3)
        }
        for block in range(3):
            chunks = [chunk for _, b, chunk, _ in calls if b == block]
            assert chunks == list(range(len(chunks)))


def test_guard_check_agrees_with_every_eavesdropper_of_the_row():
    # _muted compares a BS only with the eavesdroppers of its row whose
    # distance from the origin is within the guard radius of the BS's; that
    # must give what comparing it with all of them gives, over two chunks.
    params = default_params(guard_radius=600.0)
    chunks = draw_chunks(stream_seed(5, 0), 0, 2, 256, params)
    tables = [table for *_, table in chunks]
    rows = np.repeat(np.arange(256), simulator._CHUNK)
    for s, _, angle, _ in chunks:
        muted = simulator._muted(s.ravel(), angle.ravel(), rows, tables, params)
        position = np.sqrt(s / LAM_PI) * np.exp(1j * angle)
        every = np.zeros(s.shape, bool)
        for t in range(256):
            eav = np.concatenate([row_eavesdroppers(table, t) for table in tables])
            gap = np.abs(eav[None, :] - position[t, :, None])
            every[t] = (gap < params.guard_radius).any(axis=1)
        assert np.array_equal(muted, every.ravel())
        assert 0.01 < every.mean() < 0.99


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

    @pytest.mark.parametrize(
        ("guard_radius", "fits", "too_many"),
        [(200.0, 53.8, 54.0), (1500.0, 29.9, 30.1)],
    )
    def test_first_chunk_bounds_the_eavesdropper_density(
        self, guard_radius, fits, too_many
    ):
        # A block's first chunk holds 256 x 64 BSs and the eavesdroppers a
        # guard check from them can see, 10^6 expected points at the most.
        def params(ratio):
            return default_params(
                guard_radius=guard_radius, eaves_density=ratio * BS_DENSITY
            )

        simulator._reach(params(fits))
        with pytest.raises(SimulationConfigError, match="fit in memory"):
            simulator._reach(params(too_many))

    def test_no_guard_zone_draws_no_eavesdroppers(self):
        # Without a guard zone no eavesdropper can mute a BS, so none is drawn,
        # none counts against the memory bound, and none moves an estimate.
        crowded = default_params(guard_radius=0.0, eaves_density=100.0 * BS_DENSITY)
        assert simulator._reach(crowded) == simulator._MIN_EXPECTED_BS
        empty = replace(crowded, eaves_density=0.0)
        cfg = SimConfig(trials=300, seed=2)
        p = [0.05, 0.5, 1.0]
        for simulate in (simulate_file_hit, simulate_file_secrecy):
            assert_same_estimates(simulate(p, crowded, cfg), simulate(p, empty, cfg))

    def test_exact_halfwidth_at_zero_or_all_successes(self, monkeypatch):
        # At an estimate of 0 or 1 the sample variance is 0; a simulated file
        # there gets the exact Clopper-Pearson one, 1 - 0.025^(1/n). Files with
        # p = 0 are exact (hit 0, secrecy 1) and keep a zero half-width. With
        # no BS within reach, no file is ever served.
        monkeypatch.setattr(simulator, "_reach", lambda params: 1e-6)
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
        # 1.96 s / sqrt(n), with s the residual deviation of the trials'
        # values about their least-squares line in the control, at ddof 2,
        # plus the slope times the bound on the control mean's error.
        params, cfg = default_params(), SimConfig(trials=400, seed=3)
        est = simulate_file_hit([0.5], params, cfg)
        y = per_trial_reference([0.5], params, cfg, 0, None, params.gamma_u)[:, 0]
        c = control_reference(params, cfg, 0, None, params.gamma_u)
        slope, intercept = np.polyfit(c, y, 1)
        residual = y - (slope * c + intercept)
        assert 0.0 < est.estimate[0] < 1.0
        assert est.ci95_halfwidth[0] == pytest.approx(
            1.96 * math.sqrt(residual @ residual / 398) / math.sqrt(400)
            + abs(slope) * simulator._MEAN_ERROR, rel=1e-9
        )
        assert est.ci95_halfwidth[0] < 0.6 * 1.96 * y.std(ddof=1) / math.sqrt(400)

    @pytest.mark.parametrize("guard_radius", [200.0, 0.0])
    def test_weighted_halfwidths_bound_the_weighted_estimates(self, guard_radius):
        # A sweep's aggregate row takes sum_i q_i ci_i as the half-width of
        # sum_i q_i estimate_i. The sample deviation is a seminorm, so it is
        # at least 1.96 s / sqrt(n), with s the residual deviation of the
        # weighted scores sum_i q_i Y_i about their least-squares line in the
        # control, at ddof 2. At D = 0 the p = 1 file is its control.
        params = default_params(guard_radius=guard_radius)
        cfg = SimConfig(trials=300, seed=8)
        p, q = np.array([0.1, 0.3, 0.6, 1.0]), np.array([0.4, 0.3, 0.2, 0.1])
        est = simulate_file_hit(p, params, cfg)
        y = per_trial_reference(p, params, cfg, 0, None, params.gamma_u) @ q
        c = control_reference(params, cfg, 0, None, params.gamma_u)
        slope, intercept = np.polyfit(c, y, 1)
        residual = y - (slope * c + intercept)
        own = 1.96 * math.sqrt(residual @ residual / (cfg.trials - 2) / cfg.trials)
        assert q @ est.ci95_halfwidth >= own * (1.0 - 1e-12)

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


@pytest.mark.parametrize("alpha", [2.2, 3.0, 4.0])
def test_far_field_is_the_closed_forms_kappa2(alpha):
    # One kappa2 serves both: s_last kappa2(x) for an array of x, bit for
    # bit, and at s_last = 1 and x = gamma derive_constants' kappa2.
    x = np.array([1e-4, 0.03, 0.3162, 1.0, 5.0, 300.0])
    s_last = np.array([70.0, 3.5, 1000.0, 1.0, 12.25, 0.5])
    assert np.array_equal(_far_field(x, s_last, alpha), s_last * kappa2_at(2.0 / alpha, x))
    params = default_params(alpha=alpha)
    for gamma in x:
        far = _far_field(np.array([gamma]), np.array([1.0]), alpha)[0]
        assert far == derive_constants(params, float(gamma)).kappa2


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


class ReferenceScenes:
    """The simulator's chunk draws from stream `stream` of the seed, BS by BS.

    Chunks are drawn as far as a walk needs them. A BS is eligible if it lies
    beyond the exclusion and no eavesdropper drawn with its chunk or an
    earlier one is within its guard radius; its success value is its product
    over the BSs drawn through its chunk, times its generating-functional
    tail, computed here with scipy's hyp2f1. The reach is read through the
    module, so a test that patches simulator._reach patches it here too.
    """

    def __init__(self, params, cfg, stream, exclusion_radius, threshold):
        self.params, self.cfg, self.threshold = params, cfg, threshold
        self.reach = simulator._reach(params)
        self.excluded = -1.0 if exclusion_radius is None else LAM_PI * exclusion_radius**2
        self.seed = stream_seed(cfg.seed, stream)

    def trials(self):
        """Yield (trial, bs, eligible, value) per trial, each a function of BS k.

        bs(k) is BS k's (s, cache_u), in distance order; eligible(k) and
        value(k) say whether it may serve and what it scores if it does.
        """
        for block, first in enumerate(range(0, self.cfg.trials, simulator._BLOCK_ROWS)):
            rows = min(simulator._BLOCK_ROWS, self.cfg.trials - first)
            chunks = []

            def chunk(c):
                while len(chunks) <= c:
                    start = chunks[-1][0][:, -1] if chunks else np.zeros(rows)
                    chunks.append(_draw_chunk(self.seed, block, len(chunks), self.params, start))
                return chunks[c]

            for trial in range(rows):
                yield (first + trial, *self._trial(chunk, trial))

    def _trial(self, chunk, trial):
        params, alpha = self.params, self.params.alpha

        def bs(k):
            c, col = divmod(k, simulator._CHUNK)
            s, cache_u, _, _ = chunk(c)
            return s[trial, col], cache_u[trial, col]

        def eligible(k):
            c, col = divmod(k, simulator._CHUNK)
            s, _, angle, _ = chunk(c)
            if s[trial, col] <= self.excluded:
                return False
            position = math.sqrt(s[trial, col] / LAM_PI) * np.exp(1j * angle[trial, col])
            eav = np.concatenate([row_eavesdroppers(chunk(j)[3], trial) for j in range(c + 1)])
            return not np.any(np.abs(eav - position) < params.guard_radius)

        def value(k):
            c = k // simulator._CHUNK
            drawn = np.concatenate([chunk(j)[0][trial] for j in range(c + 1)])
            others = np.delete(drawn, k)
            ratio = self.threshold * (drawn[k] / others) ** (alpha / 2)
            x = self.threshold * (drawn[k] / drawn[-1]) ** (alpha / 2)
            delta = 2.0 / alpha
            tail = drawn[-1] * 2.0 * x / (alpha - 2.0) * special.hyp2f1(
                1.0, 1.0 - delta, 2.0 - delta, -x
            )
            return np.prod(1.0 / (1.0 + ratio)) * math.exp(-tail)

        return bs, eligible, value


def per_trial_reference(p, params, cfg, stream, exclusion_radius, threshold):
    """Per trial and file, the score: its server's value averaged over the head's marks.

    Each trial is walked BS by BS. Its head is its first simulator._HEAD
    eligible BSs within reach among the first chunk's; the m-th serves with
    probability p (1 - p)^m. With probability (1 - p)^k none of the k does,
    and the first eligible BS within reach after the head whose caching
    uniform is below p serves; a trial with no server scores 0.
    """
    scenes = ReferenceScenes(params, cfg, stream, exclusion_radius, threshold)
    scores = np.zeros((cfg.trials, len(p)))
    for trial, bs, eligible, value in scenes.trials():
        head = []
        for k in range(simulator._CHUNK):
            if len(head) == simulator._HEAD or bs(k)[0] > scenes.reach:
                break
            if eligible(k):
                head.append(k)
        head_values = [value(k) for k in head]
        for i, p_i in enumerate(p):
            score = sum(p_i * (1.0 - p_i) ** m * v for m, v in enumerate(head_values))
            for k in itertools.count(head[-1] + 1 if head else 0):
                s, cache_u = bs(k)
                if s > scenes.reach:
                    break  # no server within reach
                if cache_u < p_i and eligible(k):
                    score += (1.0 - p_i) ** len(head) * value(k)
                    break
            scores[trial, i] = score
    return scores


def first_server_reference(params, cfg, stream, exclusion_radius, threshold):
    """Per trial, the value of its first eligible BS within reach, 0 if none."""
    scenes = ReferenceScenes(params, cfg, stream, exclusion_radius, threshold)
    values = np.zeros(cfg.trials)
    for trial, bs, eligible, value in scenes.trials():
        for k in itertools.count():
            if bs(k)[0] > scenes.reach:
                break
            if eligible(k):
                values[trial] = value(k)
                break
    return values


def control_reference(params, cfg, stream, exclusion_radius, threshold):
    """Per trial, the value of its first BS beyond the exclusion, cached or not, muted or not."""
    scenes = ReferenceScenes(params, cfg, stream, exclusion_radius, threshold)
    values = np.zeros(cfg.trials)
    for trial, bs, _, value in scenes.trials():
        values[trial] = value(next(k for k in itertools.count() if bs(k)[0] > scenes.excluded))
    return values


def control_mean(params, stream):
    """The control's exact mean: the hit or the leak of the nearest BS beyond the exclusion."""
    if stream == 0:
        return 1.0 / (1.0 + kappa2_at(params.delta, params.gamma_u))
    return 1.0 - secrecy_probability_exact(1.0, replace(params, eaves_density=0.0))


def assert_estimates_match(est, scores, control, mu, p, complement=False):
    """An estimate against per-trial success scores Y and controls C of mean mu.

    The reference regresses each file's Y on C with np.cov at ddof 2: the
    estimate is mean(Y) - b (mean(C) - mu), clipped to [0, 1], with
    b = Cov(Y, C) / Var(C), and the half-width 1.96 sqrt(v / n) +
    |b| simulator._MEAN_ERROR with v = Var(Y) - b Cov(Y, C). Below 3 trials
    b = 0 and v is the sample variance, or m (1 - m) at n = 1; where every Y
    is 0 (or 1) the half-width is Clopper-Pearson's. The engine sums success
    scores, and a secrecy estimate is 1 minus the result. v is matched to
    2e-12 relative, and where it is a residual also to 64 ulps of Var(Y),
    the size of the terms whose difference both sides round; estimates and
    half-widths also to 1e-15 absolute, above the e^-40 the engine drops.
    """
    n, files = scores.shape
    mean = scores.mean(axis=0)
    estimate, variance = mean.copy(), np.empty(files)
    slope, slack = np.zeros(files), np.zeros(files)
    for i, y in enumerate(scores.T):
        if n > 2 and control.var() > 0.0:
            (var_y, cov), (_, var_c) = np.cov(y, control, ddof=2)
            slope[i] = cov / var_c
            estimate[i] = min(max(mean[i] - slope[i] * (control.mean() - mu), 0.0), 1.0)
            variance[i] = max(var_y - slope[i] * cov, 0.0)
            slack[i] = 64 * np.finfo(float).eps * var_y
        elif n > 1:
            variance[i] = y.var(ddof=1)
        else:
            variance[i] = y[0] * (1.0 - y[0])
    np.testing.assert_allclose(
        est.estimate, 1.0 - estimate if complement else estimate, rtol=1e-12, atol=1e-15
    )
    edge = (np.asarray(p) > 0.0) & ((mean == 0.0) | (mean == 1.0))
    assert np.all(est.ci95_halfwidth[edge] == 1.0 - 0.025 ** (1.0 / n))
    tol = 2e-12 * variance + slack
    lo, hi = (
        (1.96 * np.sqrt(np.maximum(v, 0.0) / n) + np.abs(slope) * simulator._MEAN_ERROR) * f
        for v, f in ((variance - tol, 1.0 - 1e-12), (variance + tol, 1.0 + 1e-12))
    )
    half = est.ci95_halfwidth
    assert np.all(((lo - 1e-15 <= half) & (half <= hi + 1e-15))[~edge]), (half, lo, hi)


def assert_matches_reference(p, params, cfg):
    for simulate, stream, exclusion, threshold in (
        (simulate_file_hit, 0, None, params.gamma_u),
        (simulate_file_secrecy, 1, params.guard_radius, params.gamma_e),
    ):
        scores = per_trial_reference(p, params, cfg, stream, exclusion, threshold)
        control = control_reference(params, cfg, stream, exclusion, threshold)
        assert_estimates_match(
            simulate(p, params, cfg), scores, control, control_mean(params, stream), p,
            complement=stream == 1,
        )


def test_always_cached_file_scores_its_first_eligible_server():
    # At p = 1 every head weight but the first is 0, and so is the weight
    # (1 - p)^k of the walk: a trial scores its first eligible BS, as it did
    # before the head's marks were integrated out. Never-cached files score 0.
    params = default_params(guard_radius=600.0)
    cfg = SimConfig(trials=300, seed=12)
    p = np.array([1.0, 0.0])
    for simulate, stream, exclusion, threshold in (
        (simulate_file_hit, 0, None, params.gamma_u),
        (simulate_file_secrecy, 1, params.guard_radius, params.gamma_e),
    ):
        first = first_server_reference(params, cfg, stream, exclusion, threshold)
        scores = np.column_stack([first, np.zeros(cfg.trials)])
        control = control_reference(params, cfg, stream, exclusion, threshold)
        assert_estimates_match(
            simulate(p, params, cfg), scores, control, control_mean(params, stream), p,
            complement=stream == 1,
        )


def test_always_cached_file_without_guard_zone_is_its_control():
    # With no guard zone nothing is muted, so at p = 1 each trial scores its
    # first BS beyond the exclusion, which is its control: the slope is 1,
    # the estimate is the control's closed-form mean to rounding, and the
    # half-width is only the bound on that mean's error.
    params, cfg = default_params(guard_radius=0.0), SimConfig(trials=500, seed=7)
    for simulate, stream in ((simulate_file_hit, 0), (simulate_file_secrecy, 1)):
        est = simulate([1.0, 0.5], params, cfg)
        mean = control_mean(params, stream)
        assert est.estimate[0] == pytest.approx(1.0 - mean if stream else mean, abs=1e-15)
        assert est.ci95_halfwidth[0] == simulator._MEAN_ERROR
        assert est.ci95_halfwidth[1] > 100 * simulator._MEAN_ERROR


@pytest.mark.parametrize(
    "stream, overrides",
    [
        (0, dict(alpha=4.0, eaves_density=0.0, guard_radius=0.0, gamma_u=1.0)),
        (0, {}),
        (1, {}),
        (1, dict(guard_radius=1500.0)),
    ],
)
def test_control_mean_is_its_closed_form(stream, overrides):
    # The control is unbiased: its mean over ten seeds of 2,000 trials lies
    # within 3 standard errors of the closed form, the classical coverage
    # 1 / (1 + kappa2(gamma_u)) (1 / (1 + pi / 4) at alpha = 4, gamma_u = 1)
    # or the leak of an always-cached file with no eavesdroppers. The hit
    # control never reads D; at 1500 m about 89% of the secrecy controls are
    # muted BSs, valued apart from the head. One seed alone is too noisy.
    params = default_params(**overrides)
    mean = control_mean(params, stream)
    if overrides.get("alpha") == 4.0:
        assert mean == pytest.approx(1.0 / (1.0 + math.pi / 4.0), rel=1e-14)
    if stream == 0:
        exclusion, threshold = -np.inf, params.gamma_u
    else:
        exclusion, threshold = LAM_PI * params.guard_radius**2, params.gamma_e
    seeds, trials, sums, squares = range(1, 11), 2_000, [], []
    for seed in seeds:
        cfg = SimConfig(trials=trials, seed=seed)
        *_, c_total, c_deviations = simulator._value_moments(
            np.ones(1), params, cfg, stream, exclusion, threshold
        )
        sums.append(c_total)
        squares.append(c_deviations / (trials - 1))
    n = trials * len(seeds)
    z = (sum(sums) / n - mean) / math.sqrt(np.mean(squares) / n)
    assert abs(z) < 3.0


def test_row_with_first_chunk_inside_the_exclusion_matches_reference():
    # At D = 3 km a row's 64 nearest BSs can all lie inside the guard disk of
    # the eavesdropper at the origin: it has no head, and its secrecy control
    # comes from a later chunk (or is 0 if the row closes first, where its
    # value would be below e^-40). At -50 dB thresholds that value is large.
    params = default_params(
        guard_radius=3000.0, eaves_density=BS_DENSITY / 100.0,
        gamma_u=db_to_linear(-50.0), gamma_e=db_to_linear(-50.0),
    )
    cfg = SimConfig(trials=40, seed=1)
    (s, *_), = draw_chunks(stream_seed(1, 1), 0, 1, 40, params)
    assert np.any(s[:, -1] <= LAM_PI * params.guard_radius**2)
    assert_matches_reference(np.array([0.4, 1.0]), params, cfg)


def test_integrating_the_head_marks_cuts_the_variance():
    # At p = 0.2 the caching marks of the head carry most of a file's
    # variance: the half-widths are about 0.0027 (hit) and 0.0037 (secrecy),
    # against 0.0120 and 0.0116 when every mark is drawn.
    params, cfg = default_params(), SimConfig(trials=2_000, seed=3)
    assert simulate_file_hit([0.2], params, cfg).ci95_halfwidth[0] < 0.005
    assert simulate_file_secrecy([0.2], params, cfg).ci95_halfwidth[0] < 0.006


def test_shared_walk_matches_per_file_reference():
    params = default_params(guard_radius=600.0)
    p = np.array([0.05, 0.6, 0.0, 1.0, 0.6, 0.3, 0.9])
    cfg = SimConfig(trials=60, seed=4)
    assert_matches_reference(p, params, cfg)


@pytest.mark.parametrize("trials", [1, 2, 3, 255, 257, 769])
def test_block_boundaries_match_reference(trials):
    # 1, 2 (no control: b = 0), 3, B - 1, B + 1 and 3B + 1 trials, at B = 256
    # rows per block.
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


def test_file_slabs_change_no_bit(monkeypatch):
    # Files are scored simulator._SLAB at a time, and a record's run of
    # files may cross from one slab into the next: every entry equals its
    # value from a single slab, bit for bit.
    params, cfg = default_params(), SimConfig(trials=300, seed=19)
    p = np.random.default_rng(0).uniform(0.0, 1.0, 11)
    whole = [simulate(p, params, cfg) for simulate in (simulate_file_hit, simulate_file_secrecy)]
    monkeypatch.setattr(simulator, "_SLAB", 3)
    for simulate, expected in zip((simulate_file_hit, simulate_file_secrecy), whole):
        assert_same_estimates(simulate(p, params, cfg), expected)


def test_rows_close_once_no_later_server_can_score(monkeypatch):
    # At the default thresholds the 128 nearest BSs already hold any farther
    # server below e^-40, so a file at p = 0.002, whose server lies about 500
    # BSs out, draws two chunks where the reach needs 16. What it leaves
    # unwalked is within the reference's tolerance.
    params = default_params()
    cfg = SimConfig(trials=20, seed=3)
    p = np.array([0.002, 0.3])
    drawn = []

    def counting(seed, block, chunk, params, start):
        drawn.append(chunk)
        return _draw_chunk(seed, block, chunk, params, start)

    monkeypatch.setattr(simulator, "_draw_chunk", counting)
    for simulate in (simulate_file_hit, simulate_file_secrecy):
        drawn.clear()
        simulate(p, params, cfg)
        assert drawn in ([0], [0, 1])
    assert simulator._reach(params) > 15 * simulator._CHUNK
    assert_matches_reference(p, params, cfg)


@pytest.mark.parametrize("guard_radius", [200.0, 800.0, 1500.0])
def test_engine_matches_closed_forms_under_independent_thinning(monkeypatch, guard_radius):
    # The closed forms mute each BS independently with probability
    # 1 - exp(-lambda_e pi D^2), while the guard check mutes BSs near one
    # eavesdropper together. Under the closed forms' own rule, decided by the
    # low bits of each BS's angle (so a BS checked again gets the same
    # answer), they are exact, and the engine must meet them within 3 sigma
    # plus the quadrature's error budget. Under the guard check, hit sits
    # 4-6.5 sigma below them at p >= 0.8 for D = 800 and 1500 m: that is
    # the model's dependent-thinning gap, not the engine's.
    params = default_params(guard_radius=guard_radius)
    share = 1.0 - math.exp(-params.eaves_density * math.pi * guard_radius**2)

    def independent(s, angle, rows, tables, params):
        return np.modf(angle * 2.0**24)[0] < share

    monkeypatch.setattr(simulator, "_muted", independent)
    p = np.array([0.05, 0.2, 0.5, 0.8, 1.0])
    cfg = SimConfig(trials=4_000, seed=1)
    for simulate, exact in ((simulate_file_hit, conditional_hit_probability),
                            (simulate_file_secrecy, secrecy_probability_exact)):
        est = simulate(p, params, cfg)
        sigma = est.ci95_halfwidth / 1.96
        assert np.all(np.abs(est.estimate - exact(p, params)) <= 3.0 * sigma + 1e-8)


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

    def test_hit_and_secrecy_draw_their_own_scenes(self):
        # With no guard zone and gamma_u = gamma_e, both simulators score the
        # same event: on shared scenes secrecy would be exactly 1 - hit. Each
        # draws its own stream of the seed, so they agree only statistically.
        params = default_params(guard_radius=0.0, gamma_e=db_to_linear(-5.0))
        cfg = SimConfig(trials=2_000, seed=6)
        hit = simulate_file_hit([0.3, 1.0], params, cfg)
        secrecy = simulate_file_secrecy([0.3, 1.0], params, cfg)
        assert np.all(secrecy.estimate != 1.0 - hit.estimate)
        assert np.all(np.abs(secrecy.estimate - (1.0 - hit.estimate)) <= (
            hit.ci95_halfwidth + secrecy.ci95_halfwidth
        ))

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

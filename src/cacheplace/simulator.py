"""Monte Carlo ground truth for hit and secrecy probabilities.

The public surface is SimConfig(trials, seed), SimEstimate and the per-file
simulators simulate_file_hit and simulate_file_secrecy; a caller weights
the per-file estimates itself for an aggregate.

Each trial samples one realization of the base-station and eavesdropper
point processes in a window sized from the network parameters alone (see
_window_radius), applies the exact guard-zone rule (a BS switches to
artificial noise whenever any eavesdropper lies within the guard radius of
it, unlike the independent-thinning approximation the closed forms use),
draws unit-mean exponential fades, and tests the SIR event at the origin.

Trials run in blocks of rows, one trial per row; each block has its own
generator, keyed on (seed, block index), so results depend only on the seed
and the trial count (which sets the length of the last block). A block's
base stations are drawn already in distance order: their squared distances
are sorted uniforms built from cumulative sums of exponentials, so no trial
sorts anything.

Every file of a call is resolved from the same scene per trial (common
random numbers): one caching uniform per BS decides which files it holds,
and one vectorised walk per block, over the BSs in distance order, finds
each file's serving transmitter in every trial. The hit and secrecy
simulators share the draw and the walk; they differ only in the exclusion
disk around the origin and the SIR threshold. A scene's draws do not depend
on the caching probabilities, so a whole grid of p (the files of a
placement, or the points of a sweep) is resolved from one scene set, and
each entry equals a one-file call at its own p with the same seed.

Because every BS transmits at full power (a file, another file, or
artificial noise), the total received power at the origin is the same sum
over all BSs regardless of the guard-zone marks; the marks only decide which
BSs are eligible serving or wiretapped transmitters. The transmit power
cancels from every SIR and never enters the computation.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimConfig",
    "SimEstimate",
    "simulate_file_hit",
    "simulate_file_secrecy",
]


# Expected base stations in an automatically sized window, at the least.
_MIN_EXPECTED_BS = 1000
# Expected draws of the larger point process (base stations or
# eavesdroppers) per block of trials: the block's working set stays at a few
# MB whatever the window and densities.
_BLOCK_DRAWS = 2**14
# Expected points of one trial, at the most: a scene must fit in memory.
_MAX_POINTS_PER_TRIAL = 10**6
# Nearest base stations the walk looks at first, doubled while some trial
# of the block still has an unserved file.
_FIRST_COLUMNS = 32


class SimulationConfigError(ValueError):
    """Simulation window or trial configuration is unusable."""


@dataclass(frozen=True)
class SimConfig:
    """Trial count and seed; the window is sized from the network parameters."""

    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise SimulationConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise SimulationConfigError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo probability estimate with a 95% binomial half-width."""

    estimate: float
    trials: int
    ci95_halfwidth: float

    @classmethod
    def from_mean(cls, mean, trials):
        mean = float(mean)
        half = 1.96 * math.sqrt(mean * (1.0 - mean) / trials)
        return cls(estimate=mean, trials=trials, ci95_halfwidth=half)


def _window_radius(params):
    """Radius of the observation disk, from the network parameters alone.

    Room for _MIN_EXPECTED_BS base stations and ten mean nearest-neighbor
    distances, or twice the guard radius if that is not beyond it; a trial
    must fit in _MAX_POINTS_PER_TRIAL expected points.
    """
    by_count = math.sqrt(_MIN_EXPECTED_BS / (math.pi * params.bs_density))
    by_spacing = 10.0 / (2.0 * math.sqrt(params.bs_density))
    radius = max(by_count, by_spacing)
    if radius <= params.guard_radius:
        radius = 2.0 * params.guard_radius
    points = sum(_expected_points(params, radius))
    if not points <= _MAX_POINTS_PER_TRIAL:
        raise SimulationConfigError(
            f"a trial would draw {points:.3g} points on average; at most "
            f"{_MAX_POINTS_PER_TRIAL:.0e} fit in memory"
        )
    return radius


def _expected_points(params, radius):
    """Expected base stations in the disk and eavesdroppers in its square."""
    return (
        math.pi * params.bs_density * radius**2,
        4.0 * params.eaves_density * radius**2,
    )


def _block_rows(params, radius):
    """Trials per block: about _BLOCK_DRAWS points of the larger process."""
    return max(1, round(_BLOCK_DRAWS / max(_expected_points(params, radius))))


def _scene_blocks(params, radius, seed, trials):
    """The scenes of trials 0, ..., trials - 1, one block of rows at a time.

    Block b is drawn by its own generator, keyed on (seed, b); a block's
    draws depend on the seed, the block index and its row count (the last
    block may be short), never on the caching probabilities.
    """
    rows = _block_rows(params, radius)
    for block, start in enumerate(range(0, trials, rows)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        yield _draw_block(rng, params, radius, min(rows, trials - start))


def _draw_block(rng, params, radius, rows):
    """Scenes of `rows` trials; returns (dist2, cache_u, fade, angle, eav).

    Row t holds trial t's base stations in distance order, nearest first:
    their count is Poisson with mean density * pi * radius^2, and the row is
    padded to the block's largest count with dist2 = cache_u = inf, so that
    a padding entry adds no power and caches no file. The squared distances
    of n uniform points in the disk are radius^2 times n sorted uniforms,
    drawn already sorted as U_(k) = S_k / S_(n+1) from the partial sums S of
    n + 1 unit exponentials. Each base station also gets a caching uniform,
    a unit-mean exponential fade and a uniform angle. eav holds each trial's
    eavesdroppers as complex positions, padded with nan: a Poisson number of
    uniform points in the enclosing square, of which those outside the disk
    are padding too.
    """
    area = math.pi * radius**2
    bs_count = rng.poisson(params.bs_density * area, rows)
    eav_count = rng.poisson(params.eaves_density * 4.0 * radius**2, rows)
    width = bs_count.max()
    sums = np.cumsum(rng.standard_exponential((rows, width + 1)), axis=1)
    real = np.arange(width) < bs_count[:, None]
    scale = radius**2 / sums[np.arange(rows), bs_count]
    dist2 = np.where(real, sums[:, :width] * scale[:, None], np.inf)
    cache_u = np.where(real, rng.random((rows, width)), np.inf)
    fade = rng.standard_exponential((rows, width))
    angle = 2.0 * math.pi * rng.random((rows, width))
    # Uniform points in the enclosing square, kept inside the disk.
    square = radius * (2.0 * rng.random((rows, eav_count.max(), 2)) - 1.0)
    eav = square.view(complex)[..., 0]
    padding = np.arange(eav.shape[1]) >= eav_count[:, None]
    eav[padding | (np.abs(eav) > radius)] = np.nan
    return dist2, cache_u, fade, angle, eav


def _block_successes(scene, params, tail_mean, p_asc, exclusion2, threshold):
    """Per file, the trials of one block whose serving BS clears the threshold.

    p_asc holds positive caching probabilities in ascending order. A file
    is served by the nearest BS beyond the exclusion disk (squared radius
    exclusion2) that caches it (cache_u < p) and is not muted by an
    eavesdropper within its guard radius; a file with no such BS in the
    window fails. Because the caching uniforms are shared, the serving BS
    of p is the first record (an eligible BS whose cache_u is below that of
    every eligible BS nearer the origin) with cache_u < p, and each record
    serves the files with p in (its cache_u, the previous record's cache_u].
    Records are found by a prefix minimum over the nearest columns, widened
    while some trial still has an unserved file; only records get a
    guard-zone check, and the records are found again after any is muted.
    """
    dist2, cache_u, fade, angle, eav = scene
    # Every BS transmits, so the total power at the origin ignores the marks.
    power = fade * dist2 ** (-params.alpha / 2.0)
    total_power = power.sum(axis=1) + tail_mean
    eligible = (cache_u < p_asc[-1]) & (dist2 > exclusion2)
    checked = np.zeros_like(eligible)
    guard = params.guard_radius
    mutes = guard > 0.0 and eav.shape[1] > 0
    width = dist2.shape[1]
    columns = min(_FIRST_COLUMNS, width)
    while True:
        u = np.where(eligible[:, :columns], cache_u[:, :columns], np.inf)
        before = np.full_like(u, np.inf)  # prefix minimum of the nearer BSs
        np.minimum.accumulate(u[:, :-1], axis=1, out=before[:, 1:])
        record = (u < before) & (before >= p_asc[0])
        if mutes:
            rows, cols = np.nonzero(record & ~checked[:, :columns])
            checked[rows, cols] = True
            bs = np.sqrt(dist2[rows, cols]) * np.exp(1j * angle[rows, cols])
            muted = (np.abs(eav[rows] - bs[:, None]) < guard).any(axis=1)
            if muted.any():
                eligible[rows[muted], cols[muted]] = False
                continue
        if columns < width and (u.min(axis=1) >= p_asc[0]).any():
            columns = min(2 * columns, width)
            continue
        break
    rows, cols = np.nonzero(record)
    signal = power[rows, cols]
    success = signal > threshold * (total_power[rows] - signal)
    first = np.searchsorted(p_asc, cache_u[rows, cols][success], side="right")
    last = np.searchsorted(p_asc, before[rows, cols][success], side="right")
    bins = len(p_asc) + 1
    served = np.bincount(first, minlength=bins) - np.bincount(last, minlength=bins)
    return np.cumsum(served)[:-1]


def _success_counts(p, params, cfg, exclusion_radius, threshold):
    """Per file, the number of trials whose serving BS clears the SIR threshold.

    Every file of a trial is resolved from the same scene. A call where no
    file is ever cached draws no scene.
    """
    radius = _window_radius(params)
    files = np.argsort(p, kind="stable")
    files = files[p[files] > 0.0]
    counts = np.zeros(len(p))
    if len(files):
        # Beyond-window interferers are replaced by their exact mean,
        # 2 pi lambda R^(2-alpha) / (alpha - 2): with alpha close to 2 the
        # truncated far field is not negligible at any affordable radius and
        # would bias every SIR upward by more than the Monte Carlo error.
        tail_mean = (
            2.0 * math.pi * params.bs_density * radius ** (2.0 - params.alpha)
            / (params.alpha - 2.0)
        )
        exclusion2 = -np.inf if exclusion_radius is None else exclusion_radius**2
        for scene in _scene_blocks(params, radius, cfg.seed, cfg.trials):
            counts[files] += _block_successes(
                scene, params, tail_mean, p[files], exclusion2, threshold
            )
    return counts


def _file_probabilities(p):
    p = np.asarray(p, float)
    if p.ndim != 1 or not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p must be a 1-D array with entries in [0, 1], got {p}")
    return p


def _estimates(counts, trials):
    return tuple(SimEstimate.from_mean(c / trials, trials) for c in counts)


def simulate_file_hit(p, params, cfg):
    """Empirical hit probability of each file, cached with probability p[i].

    Per trial and file, the typical user at the origin associates with the
    nearest BS that caches the file and is not muted by its guard zone; the
    request hits iff the SIR from that BS exceeds the user threshold. A trial
    with no eligible transmitter in the window counts as a miss. All files
    share each trial's scene, and a scene's draws do not depend on p, so
    entry i equals a one-file call at p[i] with the same seed.
    """
    hits = _success_counts(_file_probabilities(p), params, cfg, None, params.gamma_u)
    return _estimates(hits, cfg.trials)


def simulate_file_secrecy(p, params, cfg):
    """Empirical secrecy probability of each file, cached with probability p[i].

    The typical eavesdropper sits at the origin, which places every BS
    within the guard radius of the origin into artificial-noise mode. The
    wiretapped BS is the nearest transmitter of the file outside that disk;
    the file stays secret iff the eavesdropper's SIR falls below gamma_e, or
    trivially if no eligible transmitter exists in the window. As in
    simulate_file_hit, entry i equals a one-file call at p[i] with the same
    seed.
    """
    p = _file_probabilities(p)
    wiretapped = _success_counts(p, params, cfg, params.guard_radius, params.gamma_e)
    return _estimates(cfg.trials - wiretapped, cfg.trials)

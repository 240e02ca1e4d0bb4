"""Monte Carlo ground truth for hit and secrecy probabilities.

The public surface is SimConfig(trials, seed), SimEstimate and the per-file
simulators simulate_file_hit and simulate_file_secrecy, which return one
SimEstimate of per-file arrays; a caller weights them for an aggregate.

A trial is one realization of the base-station (BS) and eavesdropper PPPs
under the exact guard-zone rule: a BS sends artificial noise whenever an
eavesdropper lies within the guard radius of it (the closed forms thin
independently instead). Every BS transmits at full power, so all of them
interfere; the marks only decide which BSs may serve, and the transmit
power cancels from every SIR. No fades are drawn: a trial scores each file
by its success probability given the positions (conditional Monte Carlo).
Under Rayleigh fading the serving BS s clears the threshold theta with
probability prod_{j != s} 1 / (1 + theta (r_s / r_j)^alpha), and over the
BSs beyond the last one drawn, a PPP outside some radius, the product has
an exact mean from the PPP's probability generating functional
(_far_field). The score has the mean of the 0/1 SIR event, with less
variance.

Trials run in blocks of _BLOCK_ROWS rows. A block draws the BSs nearest the
origin in chunks of _CHUNK per row, continuing each row's partial sums of
unit exponentials (pi lam r^2, in distance order), with the eavesdroppers
that a guard check from those BSs can see. Chunk c of block b has its own
generator, keyed on (seed, b, c), and is drawn for every row, so the draws
depend only on the seed and the trial count, never on p. Chunks are drawn
while some row has an unserved file and has not passed the reach (_reach);
a file with no eligible BS within reach scores 0 for hit and 1 for secrecy.

All files of a trial share its scene (common random numbers): one caching
uniform per BS decides which files it holds, so the serving BSs are the
records of a prefix-minimum walk over the eligible BSs, each serving the
files with p in (its uniform, the previous record's uniform]; only records
get a guard check. A record's product stops at the end of its chunk, so a
file's score depends only on the scene and its own p: entry i of a call
equals a one-file call at p[i] with the same seed, bit for bit.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .special import hyp2f1_1b

__all__ = [
    "SimConfig",
    "SimEstimate",
    "simulate_file_hit",
    "simulate_file_secrecy",
]


# Nearest base stations a chunk adds to each row.
_CHUNK = 64
# Trials per block: a chunk of a block holds 2^14 base stations.
_BLOCK_ROWS = 2**14 // _CHUNK
# Expected base stations within reach, at the least.
_MIN_EXPECTED_BS = 1000
# Expected points of a block's first chunk, its largest, at the most.
_MAX_CHUNK_POINTS = 10**6


class SimulationConfigError(ValueError):
    """Simulation reach or trial configuration is unusable."""


@dataclass(frozen=True)
class SimConfig:
    """Trial count and seed; the reach is set by the network parameters."""

    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise SimulationConfigError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise SimulationConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise SimulationConfigError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo probability estimates, one or per file, with 95% half-widths."""

    estimate: float | np.ndarray
    trials: int
    ci95_halfwidth: float | np.ndarray

    @classmethod
    def from_mean(cls, mean, trials):
        """Half-width 1.96 sqrt(m (1 - m) / n), which bounds any score in [0, 1]."""
        half = 1.96 * np.sqrt(mean * (1.0 - mean) / trials)
        return cls(estimate=mean, trials=trials, ci95_halfwidth=half)


def _reach(params):
    """pi lam R^2 of the reach R, checking that a chunk fits in memory.

    R holds _MIN_EXPECTED_BS expected base stations, or is twice the guard
    radius if that is not beyond it.
    """
    lam_pi = math.pi * params.bs_density
    rho = math.sqrt(_CHUNK / lam_pi)  # mean radius of a first chunk
    eav = params.eaves_density * math.pi * (rho + params.guard_radius) ** 2
    points = _BLOCK_ROWS * (_CHUNK + eav)
    if not points <= _MAX_CHUNK_POINTS:
        raise SimulationConfigError(
            f"a chunk would draw {points:.3g} points on average; at most "
            f"{_MAX_CHUNK_POINTS:.0e} fit in memory"
        )
    guard = lam_pi * params.guard_radius**2
    return _MIN_EXPECTED_BS if guard < _MIN_EXPECTED_BS else 4.0 * guard


def _draw_chunk(seed, block, chunk, params, start):
    """Chunk `chunk` of block `block`; returns (s, cache_u, angle, eav).

    Row t of s continues trial t's partial sums of unit exponentials from
    start[t] (0 before the first chunk) for _CHUNK more BSs: s = pi lam r^2.
    Each BS gets a caching uniform and an angle. eav holds, as complex
    positions padded with nan, a Poisson number of uniform eavesdroppers in
    the annulus (rho_start + D, rho_end + D], a disk for the first chunk;
    it has no columns when no guard zone can mute.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block, chunk)))
    rows = len(start)
    s = start[:, None] + np.cumsum(rng.standard_exponential((rows, _CHUNK)), axis=1)
    cache_u = rng.random((rows, _CHUNK))
    angle = 2.0 * math.pi * rng.random((rows, _CHUNK))
    guard = params.guard_radius
    if not (guard > 0.0 and params.eaves_density > 0.0):
        return s, cache_u, angle, np.empty((rows, 0), complex)
    lam_pi = math.pi * params.bs_density
    inner2 = (np.sqrt(start / lam_pi) + guard) ** 2 if chunk else np.zeros(rows)
    area = (np.sqrt(s[:, -1] / lam_pi) + guard) ** 2 - inner2
    count = rng.poisson(params.eaves_density * math.pi * area)
    width = count.max()
    radius = np.sqrt(inner2[:, None] + area[:, None] * rng.random((rows, width)))
    phase = 2.0 * math.pi * rng.random((rows, width))
    eav = np.empty((rows, width), complex)
    eav.real, eav.imag = radius * np.cos(phase), radius * np.sin(phase)
    eav[np.arange(width) >= count[:, None]] = np.nan
    return s, cache_u, angle, eav


def _block_records(seed, block, rows, params, reach, p_min, exclusion, threshold):
    """(u, before, v) of every record of one block, in (chunk, row) order.

    A record with caching uniform u serves the files with p in (u, before];
    v is its conditional success probability. exclusion and reach bound the
    eligible BSs in units of pi lam r^2. Chunks are drawn while some row
    has no record below p_min yet and has not passed the reach; each chunk
    is walked only by those rows, from each row's running minimum.
    """
    half_alpha = params.alpha / 2.0
    powers, eavs, found = [], [], []  # per chunk: s^(alpha/2), eavesdroppers
    start = np.zeros(rows)
    best = np.full(rows, np.inf)  # minimum uniform of the eligible BSs so far
    open_rows = np.arange(rows)
    while open_rows.size:
        chunk = len(powers)
        s, cache_u, angle, eav = _draw_chunk(seed, block, chunk, params, start)
        powers.append(s**half_alpha)
        eavs.append(eav)
        start = s[:, -1]
        s, cache_u, angle = s[open_rows], cache_u[open_rows], angle[open_rows]
        u = np.where((s > exclusion) & (s <= reach), cache_u, np.inf)
        checked = np.zeros(u.shape, bool)
        while True:
            before = np.minimum.accumulate(
                np.column_stack([best[open_rows], u[:, :-1]]), axis=1
            )
            record = (u < before) & (before >= p_min)
            row, col = np.nonzero(record & ~checked)
            near = np.concatenate([e[open_rows[row]] for e in eavs], axis=1)
            if not near.size:
                break  # nothing left to check, or no guard zone can mute
            checked[row, col] = True
            radius = np.sqrt(s[row, col] / (math.pi * params.bs_density))
            gap = near - (radius * np.exp(1j * angle[row, col]))[:, None]
            muted = (gap.real**2 + gap.imag**2 < params.guard_radius**2).any(axis=1)
            if not muted.any():
                break
            u[row[muted], col[muted]] = np.inf
        row, col = np.nonzero(record)
        server = threshold * powers[-1][open_rows[row], col]
        drawn = np.concatenate([c[open_rows[row]] for c in powers], axis=1)
        factor = server[:, None] / drawn  # theta (r_s / r_j)^alpha
        factor[np.arange(row.size), chunk * _CHUNK + col] = 0.0  # the server
        found.append((u[row, col], before[row, col], server / drawn[:, -1],
                      s[row, -1], np.log1p(factor).sum(axis=1)))
        best[open_rows] = np.minimum(best[open_rows], u.min(axis=1))
        open_rows = open_rows[(best[open_rows] >= p_min) & (start[open_rows] < reach)]
    u, before, x, s_last, log_sum = map(np.concatenate, zip(*found))
    return u, before, np.exp(-(log_sum + _far_field(x, s_last, params.alpha)))


def _far_field(x, s_last, alpha):
    """-log of the mean success factor of the BSs beyond the last one drawn.

    They form a PPP outside the radius rho with pi lam rho^2 = s_last. For a
    server at x = theta (r_s / rho)^alpha, its probability generating
    functional gives pi lam rho^2 2x / (alpha - 2) 2F1(1, 1 - delta; 2 - delta; -x).
    """
    return s_last * 2.0 * x / (alpha - 2.0) * hyp2f1_1b(1.0 - 2.0 / alpha, -x)


def _value_sums(p, params, cfg, exclusion, threshold):
    """Per file, the sum and the sum of squares of the trials' success values.

    Only BSs beyond exclusion, in units of pi lam r^2, may serve. Every file
    of a trial is resolved from the same scene; a file with no server in a
    trial adds 0. A call where no file is ever cached draws no scene.
    """
    reach = _reach(params)
    files = np.argsort(p, kind="stable")
    files = files[p[files] > 0.0]
    sums = np.zeros((2, len(p)))
    if len(files):
        p_asc = p[files]
        for block, first_trial in enumerate(range(0, cfg.trials, _BLOCK_ROWS)):
            rows = min(_BLOCK_ROWS, cfg.trials - first_trial)
            u, before, v = _block_records(
                cfg.seed, block, rows, params, reach, p_asc[0], exclusion, threshold
            )
            # Expand each record into its (record, file) pairs; bincount adds
            # each file's values in record order, whatever the other files.
            first = np.searchsorted(p_asc, u, side="right")
            count = np.searchsorted(p_asc, before, side="right") - first
            record = np.repeat(np.arange(len(v)), count)
            offset = np.cumsum(count) - count - first
            file = np.arange(len(record)) - offset[record]
            for k, weights in enumerate((v[record], v[record] ** 2)):
                sums[k, files] += np.bincount(file, weights, minlength=len(files))
    return sums


def _file_probabilities(p):
    p = np.asarray(p, float)
    if p.ndim != 1 or not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p must be a 1-D array with entries in [0, 1], got {p}")
    return p


def _file_estimates(p, sums, trials, complement):
    """Per-file mean values (1 minus them if complement) with 1.96 s / sqrt(n).

    s^2 is the values' sample variance, bounded by m (1 - m) at n = 1. At an
    estimate of exactly 0 or 1 a simulated file (p > 0) gets the exact
    Clopper-Pearson half-width of 0 or n successes, 1 - 0.025^(1/n), which
    holds for any score in [0, 1]; a file with p = 0 is exact.
    """
    total, squares = sums
    mean = total / trials
    estimate = 1.0 - mean if complement else mean
    if trials > 1:
        variance = np.maximum(squares - total * mean, 0.0) / (trials - 1)
    else:
        variance = mean * (1.0 - mean)
    half = 1.96 * np.sqrt(variance / trials)
    edge = (p > 0.0) & ((estimate == 0.0) | (estimate == 1.0))
    half = np.where(edge, 1.0 - 0.025 ** (1.0 / trials), half)
    return SimEstimate(estimate=estimate, trials=trials, ci95_halfwidth=half)


def simulate_file_hit(p, params, cfg):
    """Hit probability of each file, cached with probability p[i].

    Per trial and file, the typical user at the origin associates with the
    nearest BS that caches the file and is not muted by its guard zone; the
    trial scores the probability that the SIR from that BS exceeds the user
    threshold given the positions, or 0 if no eligible BS lies within reach.
    All files share each trial's scene, and a scene's draws do not depend on
    p, so entry i equals a one-file call at p[i] with the same seed.
    """
    p = _file_probabilities(p)
    sums = _value_sums(p, params, cfg, -np.inf, params.gamma_u)
    return _file_estimates(p, sums, cfg.trials, complement=False)


def simulate_file_secrecy(p, params, cfg):
    """Secrecy probability of each file, cached with probability p[i].

    The typical eavesdropper sits at the origin, which places every BS
    within the guard radius of the origin into artificial-noise mode. The
    wiretapped BS is the nearest transmitter of the file outside that disk;
    the trial scores the probability that the eavesdropper's SIR falls below
    gamma_e given the positions, or 1 if no eligible transmitter lies within
    reach. As in simulate_file_hit, entry i equals a one-file call at p[i]
    with the same seed.
    """
    p = _file_probabilities(p)
    guard = math.pi * params.bs_density * params.guard_radius**2
    sums = _value_sums(p, params, cfg, guard, params.gamma_e)
    return _file_estimates(p, sums, cfg.trials, complement=True)

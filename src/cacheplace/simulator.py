"""Monte Carlo ground truth for hit and secrecy probabilities.

Each trial samples one realization of the base-station and eavesdropper
point processes in a finite window, applies the exact guard-zone rule (a BS
switches to artificial noise whenever any eavesdropper lies within the guard
radius of it, unlike the independent-thinning approximation the closed forms
use), draws unit-mean exponential fades, and tests the SIR event at the
origin. Trials use counter-based substreams keyed on (seed, trial index), so
results are reproducible and independent of execution order.

Every file of a call is resolved from the same scene per trial (common
random numbers): one caching uniform per BS decides which files it holds,
and a single walk over the BSs in distance order finds each file's serving
transmitter. Each scene is drawn and walked once, by one per-trial function
that the hit and secrecy simulators share; they differ only in the exclusion
disk around the origin and the SIR threshold. A scene's draws do not depend
on the caching probabilities, so a whole grid of p (the files of a
placement, or the points of a sweep) is resolved from one scene set.

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
    "HitSimResult",
    "sample_ppp",
    "simulate_hit",
    "simulate_file_hit",
    "simulate_file_secrecy",
]


# Expected base stations in an automatically sized window, at the least.
_MIN_EXPECTED_BS = 1000


class SimulationConfigError(ValueError):
    """Simulation window or trial configuration is unusable."""


@dataclass(frozen=True)
class SimConfig:
    """Trial count, seed, and observation-window sizing.

    window_radius=None picks a radius automatically so the expected number
    of base stations in the window is at least _MIN_EXPECTED_BS and the
    radius covers at least ten mean nearest-neighbor distances.
    """

    trials: int = 10_000
    seed: int = 0
    window_radius: float | None = None

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


@dataclass(frozen=True)
class HitSimResult:
    """Per-file hit estimates plus the popularity-weighted aggregate."""

    per_file: tuple
    aggregate: SimEstimate


def _trial_rng(seed, trial):
    # Philox is counter-based: (seed, trial) keys independent substreams.
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _window_radius(params, cfg):
    if cfg.window_radius is not None:
        if cfg.window_radius <= params.guard_radius:
            raise SimulationConfigError(
                f"window_radius {cfg.window_radius} must exceed the guard radius "
                f"{params.guard_radius}"
            )
        return float(cfg.window_radius)
    by_count = math.sqrt(_MIN_EXPECTED_BS / (math.pi * params.bs_density))
    by_spacing = 10.0 / (2.0 * math.sqrt(params.bs_density))
    radius = max(by_count, by_spacing)
    if radius <= params.guard_radius:
        radius = 2.0 * params.guard_radius
    return radius


def sample_ppp(density, radius, rng):
    """One realization of a homogeneous PPP in a disk around the origin.

    Returns an (n, 2) array; n is Poisson with mean density * pi * radius^2
    and the points are uniform in the disk.
    """
    if density < 0:
        raise ValueError(f"density must be >= 0, got {density}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    n = rng.poisson(density * math.pi * radius**2)
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def _trial_successes(rng, params, radius, p_asc, exclusion_radius, threshold):
    """Draw one scene and, per file, whether its serving BS clears the threshold.

    p_asc holds positive caching probabilities in ascending order. A file is
    served by the nearest BS outside the exclusion radius (None for no
    exclusion) that caches it (cache_u < p) and transmits; a file with no
    such BS in the window fails. The cache uniforms are shared, so one walk
    in distance order resolves every file: each transmitting BS serves the
    still unserved files whose p exceeds its cache_u. Only the BSs that can
    serve some file are sorted, and only those the walk reaches get a
    guard-zone check.
    """
    bs = sample_ppp(params.bs_density, radius, rng)
    eav = sample_ppp(params.eaves_density, radius, rng)
    fade = rng.exponential(size=len(bs))
    cache_u = rng.random(len(bs))
    dist2 = bs[:, 0] ** 2 + bs[:, 1] ** 2
    power = fade * dist2 ** (-params.alpha / 2.0)
    # Beyond-window interferers are replaced by their exact mean,
    # 2 pi lambda R^(2-alpha) / (alpha - 2): with alpha close to 2 the
    # truncated far field is not negligible at any affordable radius and
    # would bias every SIR upward by more than the Monte Carlo error.
    tail_mean = (
        2.0 * math.pi * params.bs_density * radius ** (2.0 - params.alpha)
        / (params.alpha - 2.0)
    )
    total_power = float(power.sum()) + tail_mean
    candidate = cache_u < p_asc[-1]
    if exclusion_radius is not None:
        candidate &= dist2 > exclusion_radius**2
    candidates = np.flatnonzero(candidate)
    guard2 = params.guard_radius**2
    success = np.zeros(len(p_asc), dtype=bool)
    unserved = len(p_asc)  # files p_asc[:unserved] have no BS yet
    for b in candidates[np.argsort(dist2[candidates])]:
        if cache_u[b] >= p_asc[unserved - 1]:
            continue
        if guard2 > 0.0 and len(eav):  # muted if an eavesdropper is within D
            if ((eav - bs[b]) ** 2).sum(axis=1).min() < guard2:
                continue
        first = np.searchsorted(p_asc, cache_u[b], side="right")
        signal = power[b]
        success[first:unserved] = signal > threshold * (total_power - signal)
        unserved = first
        if unserved == 0:
            break
    return success


def _success_counts(p, params, cfg, exclusion_radius, threshold):
    """Per file, the number of trials whose serving BS clears the SIR threshold.

    Every file of a trial is resolved from the same scene. A call where no
    file is ever cached draws no scene.
    """
    radius = _window_radius(params, cfg)
    files = np.argsort(p, kind="stable")
    files = files[p[files] > 0.0]
    p_asc = p[files]
    counts = np.zeros(len(p))
    if len(files):
        for trial in range(cfg.trials):
            counts[files] += _trial_successes(
                _trial_rng(cfg.seed, trial), params, radius, p_asc,
                exclusion_radius, threshold,
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


def simulate_hit(policy, catalog, params, cfg):
    """Per-file hit estimates of a placement and their popularity-weighted mean.

    The per-file estimates are those of simulate_file_hit at policy.p.
    """
    p = np.asarray(policy.p, float)
    if len(p) != catalog.file_count:
        raise ValueError(
            f"policy length {len(p)} does not match catalog size {catalog.file_count}"
        )
    hits = _success_counts(p, params, cfg, None, params.gamma_u)
    aggregate_mean = float(np.dot(catalog.popularity, hits) / cfg.trials)
    return HitSimResult(
        per_file=_estimates(hits, cfg.trials),
        aggregate=SimEstimate.from_mean(aggregate_mean, cfg.trials),
    )


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

"""Monte Carlo ground truth for hit and secrecy probabilities.

The public surface is SimConfig(trials, seed), SimEstimate and the per-file
simulators simulate_file_hit and simulate_file_secrecy, which return one
SimEstimate of per-file arrays.

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
that a guard check from those BSs can see, in a table sorted by row, then by
distance from the origin. The hit simulator draws from stream 0 of the seed
and the secrecy simulator from stream 1, keyed on SeedSequence([seed,
stream]); chunk c of block b of a stream has its own generator, keyed on
(key, b, c), and is drawn for every row, so the draws depend only on the
seed, the stream and the trial count, never on p or on the thresholds.
Chunks are drawn while some row is open: it has an unserved file, has not
passed the reach (_reach), and a later server could still score above
epsilon = e^-40, about 4e-18. A server beyond the last BS drawn, at r_L,
scores at most prod_j 1 / (1 + theta (r_L / r_j)^alpha) over the drawn BSs,
all of which interfere with it: the last BS's own product, scored as any
server's is, times its own factor. A row closes once that bound falls below
epsilon; it is checked after chunks 0, 1, 3, 7, ... of the block. A file
with no eligible BS within reach, or none before its row closed, scores 0
for hit and 1 for secrecy. That is off by less than epsilon where the bound
closed the row, not where the reach stopped it: a server beyond the reach
can still succeed, so at small p and low thresholds the estimate is biased
low for hit and high for secrecy.

All files of a trial share its scene (common random numbers). A BS is
eligible if it lies beyond the exclusion and within reach and its guard zone
does not mute it; a row's first k <= _HEAD eligible BSs of the first chunk
are its head, and only their caching marks are integrated out: the m-th
serves a file with probability p (1 - p)^m, and with probability (1 - p)^k
none of them holds it. Past the head, one caching uniform per BS decides
which files it holds, so the next server of each file is a record of a
prefix-minimum walk over the other eligible BSs, serving the files with p in
(its uniform, the previous record's uniform]. A trial scores
sum_m p (1 - p)^m S_m + (1 - p)^k S_rec, the mean over the head's marks of
the success value of the file's server given the rest of the scene (the
same conditional Monte Carlo as for the fades); at p = 1 it is S_0, the
first eligible BS's value. Only head BSs and records get a guard check.
Each success value's product stops at the end of its chunk, so a file's
score depends only on the scene and its own p: entry i of a call equals a
one-file call at p[i] with the same seed, bit for bit. A chunk's head BSs,
records and controls (below) are scored in one pass, each from its own row.

Each trial also scores a control C (Lavenberg & Welch, Mgmt. Sci. 1981):
the success value of the first BS beyond the exclusion, whatever its
caching mark and guard zone. Its mean is exact: for hit the classical
coverage 1 / (1 + kappa2(gamma_u)) (Andrews, Baccelli & Ganti, IEEE TCOM
2011), for secrecy the leak of an always-cached file with no eavesdroppers,
1 - secrecy_probability_exact(1, params with eaves_density = 0). A row
with no BS beyond the exclusion in its first chunk takes C from the first
later chunk that has one, or 0 if the row closes first (off by less than
epsilon). A file's estimate is its mean score less b (mean(C) - mean),
with its own least-squares slope b, and its half-width comes from the
residual variance (_file_estimates); below 3 trials, or where C never
varies, b = 0.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .analytic import kappa2_at, secrecy_probability_exact

__all__ = [
    "SimConfig",
    "SimEstimate",
    "simulate_file_hit",
    "simulate_file_secrecy",
]


# Nearest base stations a chunk adds to each row.
_CHUNK = 64
# Eligible base stations of a row whose caching marks a trial averages out.
_HEAD = 4
# Trials per block: a chunk of a block holds 2^14 base stations.
_BLOCK_ROWS = 2**14 // _CHUNK
# Expected base stations within reach, at the least.
_MIN_EXPECTED_BS = 1000
# Expected points of a block's first chunk, its largest, at the most.
_MAX_CHUNK_POINTS = 10**6
# A row closes once no later server can score above epsilon = e^-_LOG_EPSILON.
_LOG_EPSILON = 40.0
# A bound on the error of a control's closed-form mean: the secrecy
# quadrature's error budget, far above the rounding of the hit's kappa2.
_MEAN_ERROR = 1e-8
# Files scored at a time, which bounds the (files, rows) temporaries of a block.
_SLAB = 64


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
    """Monte Carlo probability estimates per file, with their 95% half-widths."""

    estimate: np.ndarray
    trials: int
    ci95_halfwidth: np.ndarray


def _reach(params):
    """pi lam R^2 of the reach R, checking that a chunk fits in memory.

    R holds _MIN_EXPECTED_BS expected base stations, or is twice the guard
    radius if that is not beyond it.
    """
    lam_pi, radius = math.pi * params.bs_density, params.guard_radius
    rho = math.sqrt(_CHUNK / lam_pi)  # mean radius of a first chunk
    # Eavesdroppers are drawn only where a guard zone can mute (_draw_chunk).
    eav = params.eaves_density * math.pi * (rho + radius) ** 2 if radius > 0.0 else 0.0
    points = _BLOCK_ROWS * (_CHUNK + eav)
    if not points <= _MAX_CHUNK_POINTS:
        raise SimulationConfigError(
            f"a chunk would draw {points:.3g} points on average; at most "
            f"{_MAX_CHUNK_POINTS:.0e} fit in memory"
        )
    guard = lam_pi * radius**2
    return _MIN_EXPECTED_BS if guard < _MIN_EXPECTED_BS else 4.0 * guard


def _draw_chunk(seed, block, chunk, params, start):
    """Chunk `chunk` of block `block`; returns (s, cache_u, angle, table).

    Row t of s continues trial t's partial sums of unit exponentials from
    start[t] (0 before the first chunk) for _CHUNK more BSs: s = pi lam r^2.
    Each BS gets a caching uniform and an angle. Row t also gets a Poisson
    number of uniform eavesdroppers in the annulus (rho_start + D, rho_end + D],
    a disk for the first chunk, which table holds as (key, position, scale),
    sorted by key: eavesdropper e of row t has the complex position e and key
    t scale + |e|, and scale keeps each row's keys, widened by the guard
    radius, apart from the next row's. table is None when no guard zone can
    mute or no eavesdropper was drawn.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block, chunk)))
    rows = len(start)
    s = start[:, None] + np.cumsum(rng.standard_exponential((rows, _CHUNK)), axis=1)
    cache_u = rng.random((rows, _CHUNK))
    angle = 2.0 * math.pi * rng.random((rows, _CHUNK))
    guard = params.guard_radius
    if not (guard > 0.0 and params.eaves_density > 0.0):
        return s, cache_u, angle, None
    lam_pi = math.pi * params.bs_density
    inner2 = (np.sqrt(start / lam_pi) + guard) ** 2 if chunk else np.zeros(rows)
    area = (np.sqrt(s[:, -1] / lam_pi) + guard) ** 2 - inner2
    count = rng.poisson(params.eaves_density * math.pi * area)
    width = count.max()
    if not width:
        return s, cache_u, angle, None
    # Full rectangles are drawn, and each row keeps its first count entries.
    row, col = np.nonzero(np.arange(width) < count[:, None])
    radius = np.sqrt(inner2[row] + area[row] * rng.random((rows, width))[row, col])
    phase = 2.0 * math.pi * rng.random((rows, width))[row, col]
    position = np.empty(row.size, complex)
    position.real, position.imag = radius * np.cos(phase), radius * np.sin(phase)
    distance = np.abs(position)
    scale = 4.0 * (distance.max() + guard) + 1.0
    key = row * scale + distance
    order = np.argsort(key)
    return s, cache_u, angle, (key[order], position[order], scale)


def _muted(s, angle, rows, tables, params):
    """Whether an eavesdropper lies within the guard radius of each BS.

    BS i sits at s[i] = pi lam r^2 and angle[i] in block row rows[i]; tables
    holds the guard table of each chunk drawn that has one (_draw_chunk). A
    BS is compared only with the eavesdroppers of its row whose distance
    from the origin is within the guard radius of r, and a margin for
    rounding.
    """
    guard = params.guard_radius
    radius = np.sqrt(s / (math.pi * params.bs_density))
    position = radius * np.exp(1j * angle)
    muted = np.zeros(len(s), bool)
    for key, eav, scale in tables:
        centre, band = rows * scale + radius, guard + 1e-9 * scale
        first = np.searchsorted(key, centre - band)
        count = np.searchsorted(key, centre + band, side="right") - first
        bs = np.repeat(np.arange(len(s)), count)
        pair = first[bs] + np.arange(bs.size) - (np.cumsum(count) - count)[bs]
        gap = eav[pair] - position[bs]
        muted[bs[gap.real**2 + gap.imag**2 < guard**2]] = True
    return muted


def _success_terms(powers, rows, col, threshold):
    """(x, log-product) of a server at column col of the last chunk, per row.

    powers holds each chunk's s^(alpha/2), copied side by side for the rows
    (with one chunk drawn, nothing is joined). The log-product is the sum of
    log1p(theta (r_s / r_j)^alpha) over the row's other BSs drawn so far,
    and x = theta (r_s / r_L)^alpha at the last of them, r_L; the closing
    bound of _block_records is this pair at r_L itself, col = _CHUNK - 1.
    """
    server = threshold * powers[-1][rows, col]
    factor = np.hstack([c[rows] for c in powers]) if len(powers) > 1 else powers[0][rows]
    x = server / factor[:, -1]
    np.divide(server[:, None], factor, out=factor)
    factor[np.arange(len(rows)), factor.shape[1] - _CHUNK + col] = 0.0  # the server
    return x, np.log1p(factor, out=factor).sum(axis=1)


def _block_records(seed, block, rows, params, reach, p_min, exclusion, threshold):
    """(head, k, row, u, before, v, control): a block's heads, records and controls.

    exclusion and reach bound the eligible BSs in units of pi lam r^2, and a
    BS muted by its guard zone is not eligible. The head of a row is its
    first k <= _HEAD eligible BSs of the first chunk; head[m, t] is the
    success value of row t's m-th one (0 for m >= k[t]). The walk runs over
    the other eligible BSs: a record of row `row` with caching uniform u
    serves the files with p in (u, before], and v is its success value.
    control[t] is the success value of row t's first BS beyond the
    exclusion, cached or not, muted or not, and 0 for a row closed before
    one was drawn.
    Chunks are drawn while some row has no record below p_min yet, has not
    passed the reach and has not been closed by the bound on later servers;
    each chunk is walked only by those rows, from each row's running
    minimum. Only head BSs and records get a guard check. The servers a
    chunk completes are scored together, each in a slot: m for the m-th head
    BS, _HEAD for a control and _HEAD + 1 for a record.
    """
    half_alpha = params.alpha / 2.0
    powers, tables, found = [], [], []  # s^(alpha/2) per chunk, guard tables
    uncontrolled = np.ones(rows, bool)
    start = np.zeros(rows)
    best = np.full(rows, np.inf)  # minimum uniform of the walked BSs so far
    open_rows = np.arange(rows)
    while open_rows.size:
        chunk = len(powers)
        s, cache_u, angle, table = _draw_chunk(seed, block, chunk, params, start)
        powers.append(s**half_alpha)
        if table is not None:
            tables.append(table)
        start = s[:, -1]
        s, cache_u, angle = s[open_rows], cache_u[open_rows], angle[open_rows]
        eligible = (s > exclusion) & (s <= reach)
        head, record = np.zeros(s.shape, bool), np.zeros(s.shape, bool)
        u, before = np.empty(s.shape), np.empty(s.shape)
        checked = np.zeros(s.shape, bool)
        redo = np.arange(len(s))  # the rows whose head or records may change
        while True:
            free = eligible[redo]
            if not chunk:
                head[redo] = free & (np.cumsum(free, axis=1) <= _HEAD)
                free = free & ~head[redo]
            u[redo] = np.where(free, cache_u[redo], np.inf)
            before[redo] = np.minimum.accumulate(
                np.column_stack([best[open_rows[redo]], u[redo, :-1]]), axis=1
            )
            record[redo] = (u[redo] < before[redo]) & (before[redo] >= p_min)
            row, col = np.nonzero((head[redo] | record[redo]) & ~checked[redo])
            row = redo[row]
            if not (row.size and tables):
                break  # nothing left to check, or no guard zone can mute
            checked[row, col] = True
            muted = _muted(
                s[row, col], angle[row, col], open_rows[row], tables, params
            )
            if not muted.any():
                break
            row, col = row[muted], col[muted]
            eligible[row, col] = False
            redo = row[np.append(True, row[1:] != row[:-1])]  # sorted, once each
        # The servers the chunk completes, and their slots (see the docstring).
        row, col = np.nonzero(head | record)
        slot = np.full(row.size, _HEAD + 1)
        if not chunk:
            k = head.sum(axis=1)
            ranked = head[row, col]
            slot[ranked] = np.arange(k.sum()) - (np.cumsum(k) - k)[row[ranked]]
        # s rises along a row: a row has a BS beyond the exclusion if its last is.
        wanting = np.flatnonzero(uncontrolled[open_rows] & (s[:, -1] > exclusion))
        uncontrolled[open_rows[wanting]] = False
        row = np.append(wanting, row)
        col = np.append((s[wanting] > exclusion).argmax(axis=1), col)
        slot = np.append(np.full(wanting.size, _HEAD), slot)
        trial = open_rows[row]
        terms = *_success_terms(powers, trial, col, threshold), start[trial]
        found.append((slot, trial, u[row, col], before[row, col], *terms))
        best[open_rows] = np.minimum(best[open_rows], u.min(axis=1))
        open_rows = open_rows[(best[open_rows] >= p_min) & (start[open_rows] < reach)]
        if open_rows.size and not chunk & (chunk + 1):  # chunks 0, 1, 3, 7, ...
            # A later server lies beyond r_L, the last BS drawn: each drawn BS,
            # that one too, interferes with it at least as much as with r_L.
            x, log_sum = _success_terms(powers, open_rows, _CHUNK - 1, threshold)
            open_rows = open_rows[log_sum + np.log1p(x) <= _LOG_EPSILON]
    slot, row, u, before, x, log_sum, s_last = map(np.concatenate, zip(*found))
    v = np.exp(-(log_sum + _far_field(x, s_last, params.alpha)))
    record = slot > _HEAD
    scattered = np.zeros((_HEAD + 1, rows))
    scattered[slot[~record], row[~record]] = v[~record]
    head, control = scattered[:_HEAD], scattered[_HEAD]
    return head, k, row[record], u[record], before[record], v[record], control


def _far_field(x, s_last, alpha):
    """-log of the mean success factor of the BSs beyond the last one drawn.

    They form a PPP outside the radius rho with pi lam rho^2 = s_last. For a
    server at x = theta (r_s / rho)^alpha, its probability generating
    functional gives pi lam rho^2 kappa2(x), the closed forms' kappa2.
    """
    return s_last * kappa2_at(2.0 / alpha, x)


def _value_moments(p, params, cfg, stream, exclusion, threshold):
    """Sums and deviation sums of the trials' scores and of their control.

    Returns (total, deviations, co, c_total, c_deviations): per file, the sum
    of the scores, of their squared deviations and of their products with
    the control's deviations; then the control's sum and squared deviations.
    The scenes come from stream `stream` of cfg.seed. Only BSs beyond
    exclusion, in units of pi lam r^2, may serve. A trial's score for a file
    is its success value averaged over the caching marks of the row's head:
    the m-th head BS serves with probability p (1 - p)^m, and with
    probability (1 - p)^k none of the k does and the file's record serves (0
    if it has none). Its control is the success value of the row's first BS
    beyond exclusion, whatever its caching mark and guard zone. Each block's
    deviations are taken from that block's own means (two passes), and the
    blocks are merged by the pairwise update of Chan, Golub & LeVeque
    (1979), so the sums keep their relative precision where a variance is
    tiny against the squared mean. Files are scored _SLAB at a time, which
    bounds the (files, rows) temporaries. A call where no file is ever
    cached draws no scene.
    """
    reach = _reach(params)
    key = np.random.SeedSequence([cfg.seed, stream])
    seed = int(key.generate_state(1, np.uint64)[0])
    files = np.argsort(p, kind="stable")
    files = files[p[files] > 0.0]
    total, deviations, co = np.zeros((3, len(p)))
    c_total = c_deviations = 0.0
    if len(files):
        p_asc = p[files]
        miss = np.cumprod([np.ones_like(p_asc)] + [1.0 - p_asc] * _HEAD, axis=0)
        for block, first_trial in enumerate(range(0, cfg.trials, _BLOCK_ROWS)):
            rows = min(_BLOCK_ROWS, cfg.trials - first_trial)
            head, k, row, u, before, v, control = _block_records(
                seed, block, rows, params, reach, p_asc[0], exclusion, threshold
            )
            # Merged with the trials before this block (none before the first).
            weight = first_trial * rows / (first_trial + rows)
            c_sum = control.sum()
            c_dev = control - c_sum / rows
            c_shift = c_sum / rows - c_total / max(first_trial, 1)
            # Each record serves a run of files of its row, and a row's runs
            # tile its files from its last record's up. Along a row the walk
            # finds runs of ever lower files, so labels counting down in walk
            # order rise with the first file: the running maximum of the
            # labels at each run's first file is the serving record (0: none);
            # a slab starts from the label its row ended the last on.
            first = np.searchsorted(p_asc, u, side="right")
            serves = np.searchsorted(p_asc, before, side="right") > first
            row, first, v = row[serves], first[serves], v[serves]
            rank, v = np.arange(len(v), 0, -1), np.append(0.0, v[::-1])
            label = np.zeros(rows, int)
            for lo in range(0, len(files), _SLAB):
                part = slice(lo, lo + _SLAB)
                p_part, miss_part = p_asc[part], miss[:, part]
                # scores[f, t]: entry by entry, the same sums whatever the other files.
                scores, term = np.empty((2, len(p_part), rows))
                np.multiply(p_part[:, None], head[0], out=scores)
                for m in range(1, _HEAD):
                    serve_m = (p_part * miss_part[m])[:, None]
                    scores += np.multiply(serve_m, head[m], out=term)
                ours = (first >= lo) & (first < lo + len(p_part))
                labels = np.zeros((rows, len(p_part)), int)
                labels[:, 0] = label
                labels[row[ours], first[ours] - lo] = rank[ours]
                label = np.maximum.accumulate(labels, axis=1, out=labels)[:, -1]
                scores += np.multiply(miss_part[k].T, v[labels.T], out=term)
                block_sum = scores.sum(axis=1)
                np.subtract(scores, (block_sum / rows)[:, None], out=term)
                block_co = np.multiply(term, c_dev, out=scores).sum(axis=1)
                block_dev = np.square(term, out=term).sum(axis=1)
                at = files[part]
                shift = block_sum / rows - total[at] / max(first_trial, 1)
                deviations[at] += block_dev + shift * shift * weight
                co[at] += block_co + shift * c_shift * weight
                total[at] += block_sum
            c_deviations += np.square(c_dev).sum() + c_shift * c_shift * weight
            c_total += c_sum
    return total, deviations, co, c_total, c_deviations


def _file_probabilities(p):
    p = np.asarray(p, float)
    if p.ndim != 1 or not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p must be a 1-D array with entries in [0, 1], got {p}")
    return p


def _file_estimates(p, moments, trials, control_mean, complement):
    """Per-file control-variate estimates (1 minus them if complement), with 95% CIs.

    With the score Y of a file and the control C, whose mean control_mean
    is exact, the estimate is mean(Y) - b (mean(C) - control_mean), clipped
    to [0, 1], with the file's own regression slope b = S_CY / S_CC, and the
    half-width is 1.96 sqrt((S_YY - b S_CY) / ((n - 2) n)) from the
    residual sum of squares, plus |b| times _MEAN_ERROR for the error of
    control_mean: where Y is C (no guard zone, p = 1) the estimate is the
    closed form itself. Below 3 trials, or where the control never varies,
    b = 0: then the half-width is 1.96 s / sqrt(n) with s^2 the scores'
    sample variance, bounded by m (1 - m) at n = 1. Where every score is 0,
    or every score is 1, a simulated file (p > 0) gets the exact
    Clopper-Pearson half-width of 0 or n successes, 1 - 0.025^(1/n), which
    holds for any score in [0, 1]; a file with p = 0 is exact.
    """
    total, deviations, co, c_total, c_deviations = moments
    mean = total / trials
    slope, dof = 0.0, trials - 1
    if trials > 2 and c_deviations > 0.0:
        slope, dof = co / c_deviations, trials - 2
    estimate = np.clip(mean - slope * (c_total / trials - control_mean), 0.0, 1.0)
    residual = np.maximum(deviations - slope * co, 0.0)
    variance = residual / dof if dof else mean * (1.0 - mean)
    half = 1.96 * np.sqrt(variance / trials) + np.abs(slope) * _MEAN_ERROR
    edge = (p > 0.0) & ((mean == 0.0) | (mean == 1.0))
    half = np.where(edge, 1.0 - 0.025 ** (1.0 / trials), half)
    return SimEstimate(
        estimate=1.0 - estimate if complement else estimate,
        trials=trials,
        ci95_halfwidth=half,
    )


def simulate_file_hit(p, params, cfg):
    """Hit probability of each file, cached with probability p[i].

    Per trial and file, the typical user at the origin associates with the
    nearest BS that caches the file and is not muted by its guard zone; the
    trial scores the probability that the SIR from that BS exceeds the user
    threshold given the positions, averaged over the caching marks of the
    row's head, and 0 if no eligible BS lies within reach. The control is
    the nearest BS's value, whose mean is the classical coverage
    1 / (1 + kappa2(gamma_u)).
    All files share each trial's scene (stream 0 of cfg.seed), whose draws do
    not depend on p: entry i equals a one-file call at p[i], bit for bit.
    """
    p = _file_probabilities(p)
    moments = _value_moments(p, params, cfg, 0, -np.inf, params.gamma_u)
    coverage = 1.0 / (1.0 + kappa2_at(params.delta, params.gamma_u))
    return _file_estimates(p, moments, cfg.trials, coverage, complement=False)


def simulate_file_secrecy(p, params, cfg):
    """Secrecy probability of each file, cached with probability p[i].

    The typical eavesdropper sits at the origin, which places every BS
    within the guard radius of the origin into artificial-noise mode. The
    wiretapped BS is the nearest transmitter of the file outside that disk;
    the trial scores the probability that the eavesdropper's SIR falls below
    gamma_e given the positions, averaged over the caching marks of the row's
    head, and 1 if no eligible transmitter lies within reach. The control is
    the value of the nearest BS outside the disk, whose mean is the leak of
    an always-cached file with no eavesdroppers to mute a BS,
    1 - secrecy_probability_exact(1, params with eaves_density = 0). Its
    scenes are stream 1 of cfg.seed; as in simulate_file_hit, entry i equals
    a one-file call at p[i], bit for bit.
    """
    p = _file_probabilities(p)
    guard = math.pi * params.bs_density * params.guard_radius**2
    moments = _value_moments(p, params, cfg, 1, guard, params.gamma_e)
    leak = 1.0 - secrecy_probability_exact(1.0, replace(params, eaves_density=0.0))
    return _file_estimates(p, moments, cfg.trials, leak, complement=True)

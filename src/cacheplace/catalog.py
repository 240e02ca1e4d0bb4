"""File population model: Zipf popularity, per-file secrecy levels, cache budget."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CatalogError",
    "FileCatalog",
    "PlacementPolicy",
    "zipf_popularity",
    "make_catalog",
    "sample_secrecy_levels",
]


class CatalogError(ValueError):
    """A catalog or policy invariant is violated; message names the field."""


def _check_count(name, value, least):
    """Raise CatalogError unless value is an integer, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise CatalogError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise CatalogError(f"{name} must be >= {least}, got {value}")


def zipf_popularity(file_count, beta):
    """Zipf request probabilities q_i = i^-beta / sum_j j^-beta for i = 1..F.

    beta = 0 gives the uniform distribution; larger beta skews mass toward
    the head. Normalization uses compensated summation so long tails with
    small beta stay accurate. A beta for which F^beta overflows a float
    raises CatalogError.
    """
    _check_count("file_count", file_count, 1)
    if not 0 <= beta < math.inf:
        raise CatalogError(f"beta must be finite and >= 0, got {beta}")
    try:
        weights = [1.0 / i**beta for i in range(1, file_count + 1)]
    except OverflowError:
        raise CatalogError(
            f"beta={beta} is too large for F={file_count}: F^beta overflows a float"
        ) from None
    total = math.fsum(weights)
    return np.array([w / total for w in weights])


@dataclass(frozen=True)
class FileCatalog:
    """Immutable file population: popularity, secrecy levels, cache size."""

    popularity: np.ndarray
    secrecy_levels: np.ndarray
    cache_size: int

    def __post_init__(self):
        object.__setattr__(self, "popularity", np.asarray(self.popularity, float))
        object.__setattr__(
            self, "secrecy_levels", np.asarray(self.secrecy_levels, float)
        )
        for name in ("popularity", "secrecy_levels"):
            value = getattr(self, name)
            if value.ndim != 1:
                raise CatalogError(f"{name} must be a 1-D array")
            if not np.all(np.isfinite(value)):
                raise CatalogError(f"{name} entries must be finite")
        if self.file_count < 1:
            raise CatalogError(f"file_count must be >= 1, got {self.file_count}")
        if len(self.secrecy_levels) != self.file_count:
            raise CatalogError(
                f"secrecy_levels has length {len(self.secrecy_levels)}, "
                f"expected {self.file_count}"
            )
        if np.any(self.popularity <= 0):
            raise CatalogError("popularity entries must all be positive")
        if abs(math.fsum(memoryview(self.popularity)) - 1.0) > 1e-12:
            raise CatalogError("popularity must sum to 1 within 1e-12")
        if np.any(self.secrecy_levels < 0):
            raise CatalogError("secrecy_levels must be >= 0")
        if np.any(self.secrecy_levels >= 1.0):
            raise CatalogError(
                "secrecy_levels must lie in [0, 1); a level of 1 forces a zero "
                "caching probability"
            )
        _check_count("cache_size", self.cache_size, 1)
        if self.cache_size >= self.file_count:
            raise CatalogError(
                f"cache_size must be smaller than file_count, "
                f"got C={self.cache_size}, F={self.file_count}"
            )
        self.popularity.flags.writeable = False
        self.secrecy_levels.flags.writeable = False

    @property
    def file_count(self):
        return len(self.popularity)


def make_catalog(file_count, beta, secrecy_levels, cache_size):
    """Build a validated catalog with Zipf popularity attached."""
    return FileCatalog(
        popularity=zipf_popularity(file_count, beta),
        secrecy_levels=secrecy_levels,
        cache_size=cache_size,
    )


def sample_secrecy_levels(file_count, eps_max, seed):
    """Draw F independent secrecy levels uniform on the open interval (0, eps_max).

    Reproducible: the same seed always yields the same vector.
    """
    if not 0 < eps_max < 1:
        raise CatalogError(f"eps_max must lie in (0, 1), got {eps_max}")
    _check_count("seed", seed, 0)
    _check_count("file_count", file_count, 1)
    rng = np.random.default_rng(seed)
    u = rng.random(file_count)
    while np.any(u == 0.0):  # keep the interval open at 0
        zero = u == 0.0
        u[zero] = rng.random(int(zero.sum()))
    return eps_max * u


@dataclass(frozen=True)
class PlacementPolicy:
    """Per-file caching probabilities p in [0, 1]^F.

    When cache_size is given, the storage constraint sum(p) <= C is enforced;
    pass cache_size=None for analysis-only policies that need not be storable.
    """

    p: np.ndarray
    cache_size: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, float))
        if self.p.ndim != 1:
            raise CatalogError("p must be a 1-D array")
        if not np.all((self.p >= 0) & (self.p <= 1)):
            raise CatalogError("placement probabilities p must lie in [0, 1]")
        if self.cache_size is not None:
            total = math.fsum(memoryview(self.p))
            if total > self.cache_size + 1e-9:
                raise CatalogError(
                    f"placement exceeds cache budget: sum(p)={total:.9f} "
                    f"> C={self.cache_size}"
                )
        self.p.flags.writeable = False

"""Tests for the file population model."""

import math

import numpy as np
import pytest

from cacheplace.catalog import (
    CatalogError,
    FileCatalog,
    PlacementPolicy,
    make_catalog,
    sample_secrecy_levels,
    zipf_popularity,
)


class TestZipfPopularity:
    def test_uniform_at_zero_skew(self):
        q = zipf_popularity(10, 0.0)
        assert np.allclose(q, 0.1, atol=1e-15)

    def test_two_files(self):
        q = zipf_popularity(2, 1.0)
        assert q[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert q[1] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_head_probability_frozen(self):
        # Oracle: explicit compensated summation of the normalizer.
        q = zipf_popularity(10, 0.7)
        normalizer = math.fsum(1.0 / i**0.7 for i in range(1, 11))
        assert q[0] == pytest.approx(1.0 / normalizer, rel=1e-14)
        assert q[0] == pytest.approx(0.2518202805598069, rel=1e-12)

    def test_sums_to_one_and_decreasing(self):
        for file_count, beta in [(3, 0.5), (100, 0.7), (1000, 1.2), (50, 2.0)]:
            q = zipf_popularity(file_count, beta)
            assert math.fsum(q) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(q) < 0)

    def test_scale_consistency(self):
        # Normalizing c / i^beta must give the same result for any c > 0.
        beta = 0.9
        q = zipf_popularity(25, beta)
        for c in [1e-6, 3.7, 1e8]:
            weights = np.array([c / i**beta for i in range(1, 26)])
            assert np.allclose(q, weights / math.fsum(weights), rtol=1e-13)

    def test_head_grows_with_skew(self):
        q_low = zipf_popularity(20, 0.3)
        q_high = zipf_popularity(20, 1.5)
        assert q_high[0] > q_low[0]

    def test_domain_errors(self):
        with pytest.raises(CatalogError):
            zipf_popularity(10, -0.1)
        with pytest.raises(CatalogError):
            zipf_popularity(0, 1.0)
        for beta in (math.nan, math.inf):
            with pytest.raises(CatalogError, match="beta"):
                zipf_popularity(10, beta)

    @pytest.mark.parametrize("file_count", [True, 2.5, math.nan, math.inf, "10"])
    def test_file_count_must_be_an_integer(self, file_count):
        with pytest.raises(CatalogError, match="file_count must be an integer"):
            zipf_popularity(file_count, 0.7)

    def test_numpy_file_count_accepted(self):
        assert np.array_equal(zipf_popularity(np.int64(4), 0.7), zipf_popularity(4, 0.7))


class TestMakeCatalog:
    def test_valid(self):
        cat = make_catalog(10, 0.7, [0.0] * 10, 5)
        assert cat.file_count == 10
        assert cat.cache_size == 5
        assert math.fsum(cat.popularity) == pytest.approx(1.0, abs=1e-12)

    def test_secrecy_level_out_of_range(self):
        eps = [0.0] * 10
        eps[3] = 1.2
        with pytest.raises(CatalogError):
            make_catalog(10, 0.7, eps, 5)

    def test_non_finite_secrecy_level(self):
        with pytest.raises(CatalogError, match="secrecy_levels"):
            make_catalog(3, 0.7, [0.1, math.nan, 0.2], 1)

    def test_cache_must_be_smaller_than_catalog(self):
        with pytest.raises(CatalogError, match="cache_size"):
            make_catalog(3, 1.0, [0.2, 0.5, 0.8], 5)
        with pytest.raises(CatalogError):
            make_catalog(3, 1.0, [0.2, 0.5, 0.8], 3)

    def test_unit_level_rejected(self):
        eps = [0.0, 1.0, 0.5, 0.1]
        with pytest.raises(CatalogError):
            make_catalog(4, 0.7, eps, 2)

    def test_length_mismatch(self):
        with pytest.raises(CatalogError):
            make_catalog(4, 0.7, [0.1, 0.2], 2)

    @pytest.mark.parametrize(
        "popularity, levels, cache_size, field",
        [
            ([0.5, 0.5], [0.1, 0.2], 1.5, "cache_size"),
            ([0.5, 0.5], [0.1, 0.2], 1.0, "cache_size"),
            ([0.5, 0.5], [0.1, 0.2], True, "cache_size"),
            ([0.5, 0.5], [0.1, 0.2], "1", "cache_size"),
            (1.0, [0.1], 1, "popularity"),
            ([[0.5, 0.5]], [0.1, 0.2], 1, "popularity"),
            ([0.5, 0.5], [[0.1, 0.2]], 1, "secrecy_levels"),
            ([0.5, 0.5], 0.1, 1, "secrecy_levels"),
        ],
        ids=["fractional_C", "float_C", "bool_C", "str_C", "0d_popularity",
             "2d_popularity", "2d_levels", "0d_levels"],
    )
    def test_malformed_fields_rejected(self, popularity, levels, cache_size, field):
        with pytest.raises(CatalogError, match=field):
            FileCatalog(popularity, levels, cache_size)

    def test_fractional_budget_rejected(self):
        with pytest.raises(CatalogError, match="cache_size must be an integer"):
            make_catalog(3, 0.5, [0.1, 0.2, 0.3], 2.5)
        assert make_catalog(3, 0.5, [0.1, 0.2, 0.3], np.int64(2)).cache_size == 2

    def test_immutability(self):
        cat = make_catalog(5, 0.7, [0.1] * 5, 2)
        with pytest.raises(ValueError):
            cat.popularity[0] = 0.9


class TestSampleSecrecyLevels:
    def test_deterministic(self):
        a = sample_secrecy_levels(10, 0.5, seed=7)
        b = sample_secrecy_levels(10, 0.5, seed=7)
        assert np.array_equal(a, b)

    def test_in_open_interval(self):
        levels = sample_secrecy_levels(10_000, 0.8, seed=3)
        assert np.all(levels > 0)
        assert np.all(levels < 0.8)

    def test_mean_matches_uniform(self):
        levels = sample_secrecy_levels(100_000, 0.8, seed=11)
        assert levels.mean() == pytest.approx(0.4, abs=0.01)

    def test_small_max_shrinks_levels(self):
        levels = sample_secrecy_levels(100, 1e-9, seed=5)
        assert np.all(levels < 1e-9)

    @pytest.mark.parametrize("eps_max", [0.0, 1.0, -0.3, 1.5])
    def test_domain_errors(self, eps_max):
        with pytest.raises(CatalogError):
            sample_secrecy_levels(10, eps_max, seed=0)

    @pytest.mark.parametrize("file_count", [True, 2.5, math.nan, math.inf])
    def test_file_count_must_be_an_integer(self, file_count):
        with pytest.raises(CatalogError, match="file_count must be an integer"):
            sample_secrecy_levels(file_count, 0.5, seed=0)

    @pytest.mark.parametrize("file_count", [0, -3])
    def test_file_count_must_be_positive(self, file_count):
        with pytest.raises(CatalogError, match="file_count must be >= 1"):
            sample_secrecy_levels(file_count, 0.5, seed=0)

    @pytest.mark.parametrize("seed", [True, 1.0, None, "7"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(CatalogError, match="seed must be an integer"):
            sample_secrecy_levels(10, 0.5, seed=seed)

    def test_negative_seed_rejected(self):
        with pytest.raises(CatalogError, match="seed must be >= 0, got -1"):
            sample_secrecy_levels(10, 0.5, seed=-1)

    def test_numpy_counts_accepted(self):
        a = sample_secrecy_levels(np.int64(10), 0.5, seed=np.uint32(7))
        assert np.array_equal(a, sample_secrecy_levels(10, 0.5, seed=7))


class TestPlacementPolicy:
    def test_range_enforced(self):
        with pytest.raises(CatalogError):
            PlacementPolicy(np.array([0.5, 1.2]))
        with pytest.raises(CatalogError):
            PlacementPolicy(np.array([-0.1, 0.5]))
        with pytest.raises(CatalogError, match="placement probabilities p"):
            PlacementPolicy(np.array([math.nan, 0.5]))

    def test_budget_enforced_with_cache_size(self):
        PlacementPolicy(np.array([1.0, 1.0, 0.5]), cache_size=3)
        with pytest.raises(CatalogError, match="budget"):
            PlacementPolicy(np.array([1.0, 1.0, 0.6]), cache_size=2)

    @pytest.mark.parametrize("cache_size", [None, 2])
    @pytest.mark.parametrize("p", [np.full((2, 2), 0.25), 0.5])
    def test_p_must_be_1d(self, p, cache_size):
        with pytest.raises(CatalogError, match="1-D"):
            PlacementPolicy(p, cache_size)

    def test_budget_skipped_without_cache_size(self):
        policy = PlacementPolicy(np.ones(10))
        assert policy.p.sum() == 10

    def test_uniform_constructor(self):
        policy = PlacementPolicy(np.full(4, 0.25), cache_size=1)
        assert np.allclose(policy.p, 0.25)

"""Tests for the beta function, hypergeometric family, and quadrature."""

import math

import numpy as np
import pytest
from scipy import integrate

from cacheplace.special import (
    ConvergenceError,
    QuadratureConfig,
    beta,
    hyp2f1_1b,
    integrate_semi_infinite,
)


def beta_quadrature_oracle(a, b):
    """Independent oracle: direct quadrature of the defining integral."""
    value, _ = integrate.quad(lambda x: x ** (a - 1) * (1 - x) ** (b - 1), 0, 1)
    return value


class TestBeta:
    def test_unit_arguments(self):
        assert beta(1, 1) == pytest.approx(1.0, abs=1e-14)

    def test_half_half_is_pi(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)
        assert beta(0.5, 0.5) == pytest.approx(
            beta_quadrature_oracle(0.5, 0.5), rel=1e-8
        )

    def test_two_three(self):
        assert beta(2, 3) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert beta(2, 3) == pytest.approx(beta_quadrature_oracle(2, 3), rel=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b = rng.uniform(0.05, 5.0, size=2)
            assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-13)

    @pytest.mark.parametrize("a,b", [(0, 1), (-1, 2), (1, 0), (2, -0.5)])
    def test_domain_errors(self, a, b):
        with pytest.raises(ValueError):
            beta(a, b)


class TestHyp2f1:
    def test_value_one_at_zero(self):
        for b in [0.1, 0.5, 1.0]:
            assert hyp2f1_1b(b, 0.0) == 1.0

    def test_arctan_closed_form(self):
        # 2F1(1, 1/2; 3/2; -x^2) = arctan(x) / x
        assert hyp2f1_1b(0.5, -1.0) == pytest.approx(math.pi / 4, rel=1e-10)
        for x in [0.1, 0.5, 1.3, 4.0, 20.0, 1e2, 1e3, math.sqrt(1e7)]:
            assert hyp2f1_1b(0.5, -(x**2)) == pytest.approx(
                math.atan(x) / x, rel=1e-10
            )

    def test_log_closed_form(self):
        # 2F1(1, 1; 2; -x) = ln(1 + x) / x
        assert hyp2f1_1b(1.0, -1.0) == pytest.approx(math.log(2), rel=1e-10)
        for x in [0.05, 0.4, 2.5, 40.0, 1e3, 1e5, 1e7]:
            assert hyp2f1_1b(1.0, -x) == pytest.approx(math.log1p(x) / x, rel=1e-10)

    def test_monotone_in_z_and_bounded(self):
        for b in [0.25, 2.0 / 3.0, 1.0]:
            values = [hyp2f1_1b(b, z) for z in [-50.0, -5.0, -1.0, -0.2, 0.0]]
            assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))
            assert all(0 < v <= 1 for v in values)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1_1b(0.5, 0.5)
        with pytest.raises(ValueError):
            hyp2f1_1b(0.0, -1.0)
        with pytest.raises(ValueError):
            hyp2f1_1b(1.5, -1.0)


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-10
        assert cfg.abs_tol == 1e-14
        assert cfg.max_subdivisions == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-3},
            {"abs_tol": 0.0},
            {"max_subdivisions": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        assert integrate_semi_infinite(lambda x: math.exp(-x), 0) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_nearest_transmitter_density_normalizes(self):
        lam = 1.0 / 800.0**2
        d = 200.0
        result = integrate_semi_infinite(
            lambda r: 2 * math.pi * lam * r * math.exp(-math.pi * lam * (r**2 - d**2)),
            d,
        )
        assert result == pytest.approx(1.0, rel=1e-10)

    def test_lorentzian(self):
        assert integrate_semi_infinite(lambda x: 1 / (1 + x * x), 0) == pytest.approx(
            math.pi / 2, rel=1e-10
        )

    def test_deterministic(self):
        f = lambda x: math.exp(-0.3 * x) * math.cos(x)
        assert integrate_semi_infinite(f, 1.0) == integrate_semi_infinite(f, 1.0)

    def test_monotone_in_integrand(self):
        cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)
        f = lambda x: math.exp(-x)
        g = lambda x: math.exp(-x) * (1 + 1 / (1 + x * x))
        rf = integrate_semi_infinite(f, 0, cfg)
        rg = integrate_semi_infinite(g, 0, cfg)
        assert rf <= rg + cfg.abs_tol

    def test_budget_exhaustion_raises_with_estimate(self):
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=2)
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_semi_infinite(lambda x: math.sin(x) / (1 + x), 0, cfg)
        assert math.isfinite(excinfo.value.estimate)
        assert excinfo.value.error_bound > 0


def test_kappa1_matches_quadrature_oracle():
    # kappa1(gamma) = delta gamma^delta B(1-delta, delta) must equal the
    # interference integral 2 * int_0^inf (1 - 1/(1 + gamma x^-alpha)) x dx.
    # alpha barely above 2 decays too slowly for the oracle itself to reach
    # 1e-8; the artifact's parameter range starts at alpha = 3.
    for alpha in [3.0, 4.0, 5.5, 8.0]:
        delta = 2.0 / alpha
        for gamma in [0.1, 10 ** (-0.5), 1.0, 5.0]:
            kappa1 = delta * gamma**delta * beta(1 - delta, delta)
            oracle = 2.0 * integrate_semi_infinite(
                lambda x: (1 - 1 / (1 + gamma * x ** (-alpha))) * x,
                0,
                QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=400),
            )
            assert kappa1 == pytest.approx(oracle, rel=1e-8)

"""Tests for the beta function and the hypergeometric family."""

import math

import numpy as np
import pytest
from scipy import integrate

from cacheplace.special import beta, hyp2f1_1b


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

    def test_array_matches_scalar(self):
        z = np.array([[-1e4, -3.0, -0.5], [-1e-3, 0.0, -20.0]])
        values = hyp2f1_1b(2.0 / 3.0, z)
        assert isinstance(values, np.ndarray) and values.shape == z.shape
        assert values.tolist() == [[hyp2f1_1b(2.0 / 3.0, x) for x in row] for row in z]
        assert type(hyp2f1_1b(0.5, -2.0)) is float

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1_1b(0.5, 0.5)
        with pytest.raises(ValueError):
            hyp2f1_1b(0.5, np.array([-1.0, 0.5]))
        with pytest.raises(ValueError):
            hyp2f1_1b(0.5, math.nan)
        with pytest.raises(ValueError):
            hyp2f1_1b(0.0, -1.0)
        with pytest.raises(ValueError):
            hyp2f1_1b(1.5, -1.0)


def test_kappa1_matches_quadrature_oracle():
    # kappa1(gamma) = delta gamma^delta B(1-delta, delta) must equal the
    # interference integral 2 * int_0^inf (1 - 1/(1 + gamma x^-alpha)) x dx.
    # alpha barely above 2 decays too slowly for the oracle itself to reach
    # 1e-8; the artifact's parameter range starts at alpha = 3.
    for alpha in [3.0, 4.0, 5.5, 8.0]:
        delta = 2.0 / alpha
        for gamma in [0.1, 10 ** (-0.5), 1.0, 5.0]:
            kappa1 = delta * gamma**delta * beta(1 - delta, delta)
            oracle = 2.0 * integrate.quad(
                lambda x: (1 - 1 / (1 + gamma * x ** (-alpha))) * x,
                0,
                math.inf,
                epsabs=1e-12,
                epsrel=1e-9,
                limit=400,
            )[0]
            assert kappa1 == pytest.approx(oracle, rel=1e-8)

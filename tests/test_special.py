"""Tests for the hypergeometric family and the kappa1 interference constant."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from cacheplace.analytic import NetworkParams, derive_constants
from cacheplace.special import hyp2f1_1b


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

    @pytest.mark.parametrize(
        "b",
        [2.0 / alpha for alpha in (2.2, 2.5, 3.0, 4.0, 6.0, 8.0)]
        + [1.0 - 2.0 / alpha for alpha in (2.2, 2.5, 3.0, 4.0, 6.0, 8.0)]
        + [0.9, 0.99],
    )
    def test_matches_scipy_oracle(self, b):
        # The relative error grows like 1e-16 b / (1 - b) as b -> 1; 1e-12
        # holds up to b = 0.99 across twenty decades of z.
        z = np.concatenate([[0.0], -np.logspace(-8, 12, 201)])
        oracle = special.hyp2f1(1.0, b, b + 1.0, z)
        values = hyp2f1_1b(b, z)
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=0.0)
        scalars = [hyp2f1_1b(b, x) for x in z]
        np.testing.assert_allclose(scalars, oracle, rtol=1e-12, atol=0.0)

    def test_zero_at_minus_infinity(self):
        for b in [0.25, 0.5, 0.9, 1.0]:
            assert hyp2f1_1b(b, -math.inf) == 0.0
            assert hyp2f1_1b(b, np.array([-math.inf, 0.0])).tolist() == [0.0, 1.0]

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
    # derive_constants' kappa1(gamma) = delta gamma^delta B(1-delta, delta)
    # must equal the interference integral
    # 2 * int_0^inf (1 - 1/(1 + gamma x^-alpha)) x dx.
    # alpha barely above 2 decays too slowly for the oracle itself to reach
    # 1e-8; the artifact's parameter range starts at alpha = 3.
    for alpha in [3.0, 4.0, 5.5, 8.0]:
        params = NetworkParams(
            bs_density=1e-6, eaves_density=0.0, alpha=alpha, guard_radius=0.0,
            gamma_u=1.0, gamma_e=1.0,
        )
        for gamma in [0.1, 10 ** (-0.5), 1.0, 5.0]:
            kappa1 = derive_constants(params, gamma).kappa1
            oracle = 2.0 * integrate.quad(
                lambda x: (1 - 1 / (1 + gamma * x ** (-alpha))) * x,
                0,
                math.inf,
                epsabs=1e-12,
                epsrel=1e-9,
                limit=400,
            )[0]
            assert kappa1 == pytest.approx(oracle, rel=1e-8)

"""Special-function and Jacobi-basis unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalssm.specfun import JacobiParam, basis_scale, generalized_binomial, jacobi_eval_all


class TestGeneralizedBinomial:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    def test_ordinary_diagonal(self, n):
        # alpha = 0 reduces to C(n, n) = 1
        assert generalized_binomial(float(n), n) == pytest.approx(1.0, abs=1e-15)

    def test_half_order(self):
        # Gamma(1.5) / (Gamma(0.5) 1!) = 1/2
        assert generalized_binomial(0.5, 1) == pytest.approx(0.5, abs=1e-15)

    def test_empty_product(self):
        assert generalized_binomial(-0.7, 0) == 1.0

    def test_negative_n(self):
        with pytest.raises(ValueError):
            generalized_binomial(1.0, -1)

    @settings(max_examples=50, deadline=None)
    @given(z=st.floats(min_value=0.5, max_value=20.0), n=st.integers(0, 8))
    def test_matches_gamma_ratio(self, z, n):
        if z - n + 1 <= 0:
            return
        ref = math.exp(math.lgamma(z + 1) - math.lgamma(z - n + 1) - math.lgamma(n + 1.0))
        assert generalized_binomial(z, n) == pytest.approx(ref, rel=1e-11)


class TestJacobiEval:
    def test_degree_one_at_endpoint(self):
        vals = jacobi_eval_all(JacobiParam(-0.5, 0.0), 1, 1.0)
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(0.5, abs=1e-14)

    def test_legendre_at_zero(self):
        vals = jacobi_eval_all(JacobiParam(0.0, 0.0), 2, 0.0)
        assert vals == pytest.approx([1.0, 0.0, -0.5], abs=1e-15)

    def test_degree_zero_is_one(self):
        for a in (-0.9, -0.3, 0.0, 1.7):
            assert jacobi_eval_all(JacobiParam(a, 0.0), 0, 1.0)[0] == 1.0

    def test_vectorized_shape(self):
        y = np.linspace(-1, 1, 7)
        vals = jacobi_eval_all(JacobiParam(-0.2, 0.0), 4, y)
        assert vals.shape == (5, 7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            jacobi_eval_all(JacobiParam(0.0, 0.0), 2, 1.0 + 1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            JacobiParam(-1.0, 0.0)

    def test_recurrence_endpoint_consistency(self):
        # spec invariant: recurrence value at y=1 agrees with the endpoint formula
        rng = np.random.default_rng(7)
        for _ in range(200):
            alpha = rng.uniform(0.0, 0.95)
            n = int(rng.integers(0, 40))
            p = JacobiParam(-alpha, 0.0)
            via_recurrence = jacobi_eval_all(p, n, 1.0)[n]
            via_endpoint = generalized_binomial(n - alpha, n)
            assert via_recurrence == pytest.approx(via_endpoint, rel=1e-11)


class TestJacobiEndpoint:
    @staticmethod
    def endpoint(p, n):
        # P_n^(a,b)(1) = C(n + a, n), by the closed form and by the recurrence
        return generalized_binomial(n + p.a, n), jacobi_eval_all(p, n, 1.0)[n]

    def test_degree_zero(self):
        assert self.endpoint(JacobiParam(-0.3, 0.0), 0) == (1.0, 1.0)

    def test_half_parameter(self):
        assert self.endpoint(JacobiParam(-0.5, 0.0), 1) == pytest.approx((0.5, 0.5))

    @pytest.mark.parametrize("n", [0, 1, 3, 10])
    def test_legendre_is_one(self, n):
        assert self.endpoint(JacobiParam(0.0, 0.0), n) == pytest.approx((1.0, 1.0))


class TestBasisScale:
    def test_uniform_degree_zero(self):
        s = basis_scale(0.0, 0)
        assert s.gamma_n == pytest.approx(1.0)
        assert s.h_n == pytest.approx(2.0)

    def test_uniform_degree_one(self):
        assert basis_scale(0.0, 1).gamma_n == pytest.approx(math.sqrt(3.0))

    def test_half_degree_one(self):
        assert basis_scale(0.5, 1).gamma_n == pytest.approx(math.sqrt(5.0), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=0.95, exclude_max=False),
           n=st.integers(0, 64))
    def test_normalization_identity(self, alpha, n):
        s = basis_scale(alpha, n)
        product = s.gamma_n ** 2 * (1 - alpha) * 2.0 ** (alpha - 1) * s.h_n
        assert product == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            basis_scale(1.0, 0)
        with pytest.raises(ValueError):
            basis_scale(-0.1, 0)

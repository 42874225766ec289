"""Special-function and Jacobi-basis unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalssm.measure import FractionalMeasure
from fractalssm.specfun import JacobiParam, basis_scale, index_label, jacobi_eval_all


def endpoint_closed_form(a: float, n: int) -> float:
    """P_n^(a,b)(1) = C(n + a, n) = prod_{m<=n} (m + a) / m."""
    return math.prod((m + a) / m for m in range(1, n + 1))


def at(p: JacobiParam, n_max: int, y: float) -> np.ndarray:
    """P_0 .. P_{n_max} at the single point y."""
    return jacobi_eval_all(p, n_max, [y])[:, 0]


class TestJacobiEval:
    def test_degree_one_at_endpoint(self):
        vals = at(JacobiParam(-0.5, 0.0), 1, 1.0)
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(0.5, abs=1e-14)

    def test_legendre_at_zero(self):
        vals = at(JacobiParam(0.0, 0.0), 2, 0.0)
        assert vals == pytest.approx([1.0, 0.0, -0.5], abs=1e-15)

    def test_degree_zero_is_one(self):
        for a in (-0.9, -0.3, 0.0, 1.7):
            assert at(JacobiParam(a, 0.0), 0, 1.0)[0] == 1.0

    def test_vectorized_shape(self):
        y = np.linspace(-1, 1, 7)
        vals = jacobi_eval_all(JacobiParam(-0.2, 0.0), 4, y)
        assert vals.shape == (5, 7)
        assert vals.dtype == np.longdouble

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            jacobi_eval_all(JacobiParam(-0.2, 0.0), -1, [0.5])

    def test_domain_error(self):
        with pytest.raises(ValueError, match="outside"):
            jacobi_eval_all(JacobiParam(0.0, 0.0), 2, [0.5, 1.0 + 1e-9])

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            jacobi_eval_all(JacobiParam(-0.5), 2, [0.1, np.nan])

    @pytest.mark.parametrize("y", [0.5, [[0.5]]], ids=["scalar", "2-d"])
    def test_points_must_be_1d(self, y):
        with pytest.raises(ValueError, match="1-d array"):
            jacobi_eval_all(JacobiParam(-0.5), 2, y)

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
            via_recurrence = at(p, n, 1.0)[n]
            via_endpoint = endpoint_closed_form(-alpha, n)
            assert via_recurrence == pytest.approx(via_endpoint, rel=1e-11)


class TestJacobiEndpoint:
    @staticmethod
    def endpoint(p, n):
        # P_n^(a,b)(1) = C(n + a, n), by the closed form and by the recurrence
        return endpoint_closed_form(p.a, n), at(p, n, 1.0)[n]

    def test_degree_zero(self):
        assert self.endpoint(JacobiParam(-0.3, 0.0), 0) == (1.0, 1.0)

    def test_half_parameter(self):
        assert self.endpoint(JacobiParam(-0.5, 0.0), 1) == pytest.approx((0.5, 0.5))

    @pytest.mark.parametrize("n", [0, 1, 3, 10])
    def test_legendre_is_one(self, n):
        assert self.endpoint(JacobiParam(0.0, 0.0), n) == pytest.approx((1.0, 1.0))


class TestBasisScale:
    def test_uniform_degree_zero(self):
        gammas, hs = basis_scale(0.0, 1)
        assert gammas[0] == pytest.approx(1.0)
        assert hs[0] == pytest.approx(2.0)

    def test_uniform_degree_one(self):
        assert basis_scale(0.0, 2)[0][1] == pytest.approx(math.sqrt(3.0))

    def test_half_degree_one(self):
        assert basis_scale(0.5, 2)[0][1] == pytest.approx(math.sqrt(5.0), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=0.95, exclude_max=False),
           n=st.integers(0, 64))
    def test_normalization_identity(self, alpha, n):
        gammas, hs = basis_scale(alpha, n + 1)
        product = gammas[n] ** 2 * (1 - alpha) * 2.0 ** (alpha - 1) * hs[n]
        assert product == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.81, 0.95, 0.99])
    def test_closed_forms_bit_for_bit(self, alpha):
        gammas, hs = basis_scale(alpha, 300)
        assert gammas.tolist() == [math.sqrt((2 * k + 1 - alpha) / (1 - alpha))
                                   for k in range(300)]
        assert hs.tolist() == [2.0 ** (1 - alpha) / (2 * k + 1 - alpha) for k in range(300)]

    def test_zero_degrees_are_empty(self):
        gammas, hs = basis_scale(0.5, 0)
        assert gammas.shape == hs.shape == (0,)

    def test_negative_degrees_rejected(self):
        with pytest.raises(ValueError, match="number of degrees must be >= 0, got -1"):
            basis_scale(0.5, -1)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            basis_scale(1.0, 0)
        with pytest.raises(ValueError):
            basis_scale(-0.1, 0)

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, math.nan])
    def test_measure_and_basis_state_one_index_rule(self, alpha):
        # the measure and the basis both take alpha in [0, 1), by specfun.check_index
        with pytest.raises(ValueError) as basis:
            basis_scale(alpha, 2)
        with pytest.raises(ValueError) as measure:
            FractionalMeasure(alpha)
        assert str(basis.value) == str(measure.value) == (
            f"singularity index must lie in [0, 1), got {alpha}")


class TestIndexLabel:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 0.25])
    def test_matches_g_where_g_is_exact(self, alpha):
        # the labels of the golden files, test names and known-red lists
        assert index_label(alpha) == f"{alpha:g}"

    @pytest.mark.parametrize("alpha", [0.1000001, 0.123456789, 1e-7, 0.95 - 1e-12])
    def test_reads_back_as_the_same_float(self, alpha):
        assert float(index_label(alpha)) == alpha

    def test_close_alphas_get_distinct_labels(self):
        assert index_label(0.1) != index_label(0.1000001)

    def test_negative_zero_is_zero(self):
        assert index_label(-0.0) == index_label(0.0) == "0"

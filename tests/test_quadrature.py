"""Gauss-Jacobi rule tests against exact moment oracles."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from fractalssm import quadrature
from fractalssm.quadrature import (QuadratureRule, _christoffel_weights, _newton_step,
                                   _recurrence_coeffs, default_order, gauss_jacobi,
                                   weight_mass)
from fractalssm.specfun import JacobiParam


def exact_moment(alpha_frac: Fraction, j: int) -> float:
    """int_{-1}^{1} eta^j (1-eta)^(-alpha) deta, alpha rational.

    Expanding eta^j around eta = 1 gives a finite rational sum times the
    irrational carrier 2^(1-alpha); the sum is evaluated exactly.
    """
    total = Fraction(0)
    for i in range(j + 1):
        total += (Fraction(math.comb(j, i)) * (-2) ** i
                  / (Fraction(i + 1) - alpha_frac))
    return float(total) * 2.0 ** float(1 - alpha_frac)


class TestRuleConstruction:
    def test_two_point_legendre(self):
        rule = gauss_jacobi(JacobiParam(0.0, 0.0), 2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_weight_sum_inverse_sqrt(self, order):
        rule = gauss_jacobi(JacobiParam(-0.5, 0.0), order)
        assert np.sum(rule.weights) == pytest.approx(2 * math.sqrt(2), rel=1e-13)

    def test_weight_sum_matches_mass(self):
        for a, b in [(0.0, 0.0), (-0.9, 0.0), (0.7, 0.3)]:
            param = JacobiParam(a, b)
            rule = gauss_jacobi(param, 12)
            assert np.sum(rule.weights) == pytest.approx(weight_mass(param), rel=1e-10)

    def test_high_even_moment(self):
        rule = gauss_jacobi(JacobiParam(0.0, 0.0), 8)
        val = float(np.dot(rule.weights, rule.nodes ** 14))
        assert val == pytest.approx(2.0 / 15.0, abs=1e-13)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gauss_jacobi(JacobiParam(0.0, 0.0), 0)

    def test_nodes_ordered_weights_positive(self):
        for alpha in np.arange(0.0, 0.951, 0.1):
            for order in (8, 16, 64, 256):
                rule = gauss_jacobi(JacobiParam(-alpha, 0.0), order)
                assert np.all(np.diff(rule.nodes) > 0)
                assert np.all(rule.weights > 0)
                assert np.all(np.abs(rule.nodes) < 1)

    @pytest.mark.parametrize("alpha_frac", [Fraction(0), Fraction(1, 2), Fraction(9, 10)])
    def test_polynomial_exactness(self, alpha_frac):
        # random polynomials of degree <= 2M-1 against the exact moment oracle
        order = 12
        rule = gauss_jacobi(JacobiParam(-float(alpha_frac), 0.0), order)
        rng = np.random.default_rng(11)
        moments = np.array([exact_moment(alpha_frac, j) for j in range(2 * order)])
        for _ in range(20):
            coeffs = rng.uniform(-1.0, 1.0, size=2 * order)
            vals = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
            quad = float(np.dot(rule.weights, vals))
            exact = float(np.dot(coeffs, moments))
            assert quad == pytest.approx(exact, rel=1e-11, abs=1e-13)

    def test_default_order_policy(self):
        assert default_order(0.5, 16) == 32
        assert default_order(0.85, 16) == 64


@pytest.mark.parametrize("order", [1, 2, 16])
def test_chebyshev_rule_closed_form(order):
    # a + b = -1, where the uncancelled beta_1 is 0/0; Gauss-Chebyshev has
    # nodes cos((2k - 1) pi / 2m) and equal weights pi / m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = gauss_jacobi(JacobiParam(-0.5, -0.5), order)
    k = np.arange(order, 0, -1)
    assert np.max(np.abs(rule.nodes - np.cos((2 * k - 1) * np.pi / (2 * order)))) < 4e-16
    assert np.max(np.abs(rule.weights / (np.pi / order) - 1.0)) < 1e-14


def test_rule_is_immutable_record():
    rule = gauss_jacobi(JacobiParam(0.0, 0.0), 4)
    assert isinstance(rule, QuadratureRule)
    with pytest.raises(AttributeError):
        rule.order = 8


def table_rule(param: JacobiParam, order: int):
    """The rule as first written: every pass evaluates the full p_0..p_order table.

    Three Newton sweeps on p_order, then weights 1 / sum_{j<order} p_j^2,
    all in long double from the same double-precision tridiagonal seed.
    """
    ld = np.longdouble
    d, e = _recurrence_coeffs(param, order)
    seed, _ = eigh_tridiagonal(d[:order].astype(float), e[:order - 1].astype(float))
    mu = weight_mass(param)

    def table(x):
        p = np.zeros((order + 1, x.size), dtype=ld)
        dp_prev = np.zeros(x.size, dtype=ld)
        p[0] = 1 / np.sqrt(ld(mu))
        p[1] = (x - d[0]) * p[0] / e[0]
        dp_cur = p[0] / e[0]
        for j in range(1, order):
            p[j + 1] = ((x - d[j]) * p[j] - e[j - 1] * p[j - 1]) / e[j]
            dp_new = ((x - d[j]) * dp_cur + p[j] - e[j - 1] * dp_prev) / e[j]
            dp_prev, dp_cur = dp_cur, dp_new
        return p, dp_cur

    x = seed.astype(ld)
    for _ in range(3):
        p, dpm = table(x)
        x = x - p[order] / dpm
    p, _ = table(x)
    return x, 1.0 / np.sum(p[:order] ** 2, axis=0)


class TestRulesPinned:
    @pytest.mark.parametrize("order", [1, 2, 3, 16, 257, 1024])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.81, 0.9, 0.95])
    def test_bit_identical_to_full_table(self, alpha, order):
        param = JacobiParam(-alpha, 0.0)
        rule = gauss_jacobi(param, order)
        x, w = table_rule(param, order)
        assert rule.nodes_hi.dtype == rule.weights_hi.dtype == np.longdouble
        assert np.array_equal(rule.nodes_hi, x)
        assert np.array_equal(rule.weights_hi, w)
        assert np.array_equal(rule.nodes, x.astype(float))
        assert np.array_equal(rule.weights, w.astype(float))

    def test_passes_hold_order_memory(self):
        # the full table held (order + 1) * order long doubles, 16.8 MB here
        order = 1024
        param = JacobiParam(-0.9, 0.0)
        d, e = _recurrence_coeffs(param, order)
        p0 = 1 / np.sqrt(np.longdouble(weight_mass(param)))
        x = gauss_jacobi(param, order).nodes_hi
        row = order * np.dtype(np.longdouble).itemsize
        for one_pass in (_newton_step, _christoffel_weights):
            tracemalloc.start()
            try:
                one_pass(d, e, p0, order, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * row, (one_pass.__name__, peak)


def test_last_sweep_sees_only_unsettled_nodes(monkeypatch):
    # TestRulesPinned's oracle sweeps every node, so it pins the nodes; this pins the saving
    order = 1024
    sizes = []

    def spy(d, e, p0, m, x):
        sizes.append(x.size)
        return _newton_step(d, e, p0, m, x)

    monkeypatch.setattr(quadrature, "_newton_step", spy)
    gauss_jacobi(JacobiParam(-0.9, 0.0), order)
    assert len(sizes) == 3
    assert sizes[0] == order
    assert sizes[2] < order / 8, sizes

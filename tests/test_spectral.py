"""Triangular eigendecomposition and spectral initialization tests."""

import math

import numpy as np
import pytest

from fractalssm.operators import build_A, build_B
from fractalssm.spectral import condition_number, eig_triangular, spectral_init


class TestEigTriangular:
    def test_diagonal_matrix(self):
        a = np.diag(np.arange(1.0, 6.0))
        eigs, v, v_inv = eig_triangular(a)
        assert np.array_equal(eigs, np.arange(1.0, 6.0))
        assert v == pytest.approx(np.eye(5))
        assert v_inv == pytest.approx(np.eye(5))

    def test_two_state_uniform(self):
        # (A - I)v = 0 gives v proportional to [1, -sqrt(3)]
        a = np.array([[1.0, 0.0], [math.sqrt(3.0), 2.0]])
        eigs, v, v_inv = eig_triangular(a)
        assert eigs == pytest.approx([1.0, 2.0])
        direction = v[:, 0] / v[0, 0]
        assert direction == pytest.approx([1.0, -math.sqrt(3.0)], rel=1e-14)
        assert v[:, 1] == pytest.approx([0.0, 1.0])

    def test_columns_unit_norm(self):
        a = build_A(0.6, 12)
        _, v, _ = eig_triangular(a)
        assert np.linalg.norm(v, axis=0) == pytest.approx(np.ones(12), rel=1e-14)

    @pytest.mark.parametrize("alpha,n", [(0.0, 16), (0.5, 16), (0.9, 32)])
    def test_reconstruction(self, alpha, n):
        a = build_A(alpha, n)
        eigs, v, v_inv = eig_triangular(a)
        kappa = condition_number(v)
        tol = 1e-8 * kappa
        assert np.max(np.abs(v @ v_inv - np.eye(n))) < tol
        assert np.max(np.abs(a @ v - v * eigs)) < tol
        assert np.max(np.abs(v @ np.diag(eigs) @ v_inv - a)) < tol

    def test_exact_integer_spectrum(self):
        for alpha in (0.0, 0.3, 0.9):
            eigs, _, _ = eig_triangular(build_A(alpha, 24))
            assert np.array_equal(eigs, np.arange(1.0, 25.0))

    def test_general_solver_agrees(self):
        for alpha in (0.0, 0.5, 0.9):
            a = build_A(alpha, 64)
            numeric = np.sort(np.linalg.eigvals(a).real)
            assert np.max(np.abs(numeric - np.arange(1.0, 65.0))) < 1e-10

    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_matches_extended_precision_substitution(self, alpha, n):
        # entry-by-entry forward substitution of the same A in long double
        a = build_A(alpha, n)
        ld = a.astype(np.longdouble)
        ref = np.eye(n, dtype=np.longdouble)
        ref_inv = np.eye(n, dtype=np.longdouble)
        for k in range(n):
            for i in range(k + 1, n):
                ref[i, k] = -np.dot(ld[i, k:i], ref[k:i, k]) / (ld[i, i] - ld[k, k])
        for k in range(n):
            for i in range(k + 1, n):
                ref_inv[i, k] = -np.dot(ref[i, k:i], ref_inv[k:i, k])
        scale = np.sqrt(np.sum(ref * ref, axis=0))
        ref = (ref / scale).astype(float)
        ref_inv = (ref_inv * scale[:, None]).astype(float)
        _, v, v_inv = eig_triangular(a)
        assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs(v_inv - ref_inv)) <= 1e-10 * np.max(np.abs(ref_inv))

    def test_coincident_diagonal_rejected(self):
        a = np.array([[1.0, 0.0], [0.5, 1.0 + 1e-12]])
        with pytest.raises(ValueError):
            eig_triangular(a)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(7)) == pytest.approx(1.0)

    def test_scaling_invariance(self):
        v = np.diag([1.0, 10.0])
        assert condition_number(v) == pytest.approx(10.0)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            condition_number(np.zeros((3, 3)))

    def test_growth_in_size_and_index(self):
        # conditioning worsens with both state count and singularity index
        kappas_n = [condition_number(eig_triangular(build_A(0.3, n))[1])
                    for n in (4, 8, 16)]
        assert kappas_n[0] < kappas_n[1] < kappas_n[2]
        kappas_a = [condition_number(eig_triangular(build_A(alpha, 8))[1])
                    for alpha in (0.0, 0.4, 0.8)]
        assert kappas_a[0] < kappas_a[1] < kappas_a[2]


class TestSpectralInit:
    def test_single_state(self):
        init = spectral_init(0.0, 1, 1)
        assert init.eigenvalues == pytest.approx([-1.0 + 0.0j])
        assert init.b_tilde[0, 0] == pytest.approx(1.0 + 0.0j)
        assert init.cond_v == pytest.approx(1.0)

    def test_real_parts_are_negative_integers(self):
        init = spectral_init(0.0, 4)
        assert init.eigenvalues.real == pytest.approx([-1.0, -2.0, -3.0, -4.0])
        assert init.eigenvalues.imag == pytest.approx(np.pi * np.arange(4))

    def test_round_trip_input_vector(self):
        init = spectral_init(0.5, 8)
        b = build_B(0.5, 8)
        assert np.all(np.isfinite(init.b_tilde))
        recon = init.v @ init.b_tilde[:, 0].real
        assert np.max(np.abs(recon - b)) < 1e-8

    def test_multi_input_replication(self):
        init = spectral_init(0.3, 6, input_width=4)
        phys = init.v_inv @ build_B(0.3, 6)
        assert init.b_tilde.shape == (6, 4)
        for j in range(4):
            assert init.b_tilde[:, j] == pytest.approx(phys / 2.0)

    def test_input_width_floor(self):
        with pytest.raises(ValueError):
            spectral_init(0.2, 3, input_width=0)

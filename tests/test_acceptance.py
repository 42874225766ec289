"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one pass/fail line through conftest.record_criterion
and then asserts.  Three clusters are known-red against the bundled
reference data; the analysis lives outside the package in the reviewer
notes, and the tests state the observed deviations rather than relaxing
the tolerances.
"""

import time

import numpy as np
import pytest

from conftest import record_criterion
from fractalssm.cli import main as cli_main
from fractalssm.measure import FractionalMeasure, mass_oldest, total_mass
from fractalssm.operators import build_A, build_B, legs_closed_form
from fractalssm.spectral import condition_number, eig_triangular, spectral_init
from fractalssm.ssm import (FilterBankConfig, LayerWeights, SequenceBatch, layer_forward,
                            zoh_discretize)
from fractalssm.verify import (CONDITION_TABLE, TABLE_ALPHA0, TABLE_ALPHA05,
                               _check_galerkin_projection, _check_layer_equivalence,
                               _layer_reference, _random_system, check_scale_invariance,
                               ode_consistency)

ALPHA_GRID = [round(0.1 * k, 10) for k in range(10)]   # 0.0 .. 0.9


def test_c01_diagonal_invariance():
    t0 = time.perf_counter()
    report = _check_galerkin_projection(ALPHA_GRID, 64)
    elapsed = time.perf_counter() - t0
    ok = report.max_deviation < 1e-10 and elapsed < 60.0
    record_criterion(1, "diagonal-invariance", ok,
                     f"max dev {report.max_deviation:.2e}, {elapsed:.1f}s")
    assert report.max_deviation < 1e-10
    assert elapsed < 60.0


def test_c02_legs_recovery():
    t0 = time.perf_counter()
    a_dev = float(np.max(np.abs(build_A(0.0, 64) - legs_closed_form(64))))
    b_dev = float(np.max(np.abs(build_B(0.0, 64) - np.sqrt(2.0 * np.arange(64) + 1))))
    elapsed = time.perf_counter() - t0
    ok = a_dev < 1e-10 and b_dev < 1e-12 and elapsed < 10.0
    record_criterion(2, "legs-recovery", ok,
                     f"A dev {a_dev:.2e}, B dev {b_dev:.2e}, {elapsed:.1f}s")
    assert a_dev < 1e-10
    assert b_dev < 1e-12
    assert elapsed < 10.0


_TABLE_CASES = ([(0.0, entry, value) for entry, value in sorted(TABLE_ALPHA0.items())]
                + [(0.5, entry, value) for entry, value in sorted(TABLE_ALPHA05.items())])


@pytest.mark.parametrize("alpha,entry,printed", _TABLE_CASES,
                         ids=[f"a{a}-{e}" for a, e, _ in _TABLE_CASES])
def test_c03_table_reproduction(alpha, entry, printed):
    a = build_A(alpha, 5)
    dev = abs(float(a[entry]) - printed)
    ok = dev <= 0.005
    record_criterion(3, "table-reproduction", ok,
                     f"alpha={alpha} {entry}: computed {a[entry]:.4f} vs "
                     f"printed {printed:.2f} (dev {dev:.2e})")
    assert dev <= 0.005


def test_c04_eigenvalue_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in ALPHA_GRID:
        eigs = np.sort(np.linalg.eigvals(build_A(alpha, 64)).real)
        worst = max(worst, float(np.max(np.abs(eigs - np.arange(1.0, 65.0)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    record_criterion(4, "eigenvalue-invariance", ok,
                     f"max dev {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 30.0


def test_c05_condition_numbers():
    t0 = time.perf_counter()
    sizes = sorted({n for n, _ in CONDITION_TABLE})
    alphas = sorted({a for _, a in CONDITION_TABLE})
    kappa = {}
    worst_ratio = 1.0
    for n in sizes:
        for alpha in alphas:
            a = build_A(alpha, n)
            _, v, _ = eig_triangular(a)
            kappa[(n, alpha)] = condition_number(v)
            ref = CONDITION_TABLE[(n, alpha)]
            worst_ratio = max(worst_ratio, kappa[(n, alpha)] / ref, ref / kappa[(n, alpha)])
            # diagnostic: the reference grid tracks the conditioning of A itself
            print(f"  N={n:3d} alpha={alpha}: kappa(V)={kappa[(n, alpha)]:.3e} "
                  f"reference={ref:.1e} kappa(A)={condition_number(a):.3e}")
    monotone_n = all(kappa[(n1, a)] <= kappa[(n2, a)]
                     for a in alphas for n1, n2 in zip(sizes, sizes[1:]))
    monotone_a = all(kappa[(n, a1)] <= kappa[(n, a2)]
                     for n in sizes for a1, a2 in zip(alphas, alphas[1:]))
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 10.0 and monotone_n and monotone_a and elapsed < 60.0
    record_criterion(5, "condition-numbers", ok,
                     f"worst ratio to reference {worst_ratio:.1e}, "
                     f"monotone N={monotone_n}, monotone alpha={monotone_a}")
    assert worst_ratio <= 10.0, "kappa(V) does not match the reference grid"
    assert monotone_n and monotone_a
    assert elapsed < 60.0


def test_c06_measure_normalization():
    worst = 0.0
    for alpha in ALPHA_GRID + [0.95]:
        worst = max(worst, abs(total_mass(FractionalMeasure(alpha, 1.0)) - 1.0))
    ok = worst < 1e-10
    record_criterion(6, "measure-normalization", ok, f"max dev {worst:.2e}")
    assert worst < 1e-10


def test_c07_memory_cdf():
    value = mass_oldest(0.5, 0.1)
    expected = 1.0 - 0.9 ** 0.5
    dev = abs(value - expected)
    ok = dev < 1e-12 and abs(value - 0.051) < 1e-3
    record_criterion(7, "memory-cdf", ok, f"value {value:.6f} (~5.1%), dev {dev:.1e}")
    assert dev < 1e-12
    assert abs(value - 0.051) < 1e-3


def test_c08_scale_invariance():
    rng = np.random.default_rng(20)
    signals = [np.sin, lambda s: 0.4 * s ** 3 - 1.2 * s + 0.7]
    worst = 0.0
    for trial in range(20):
        alpha = float(rng.uniform(0.0, 0.9))
        lam = float(rng.uniform(0.25, 4.0))
        u = signals[trial % 2]
        worst = max(worst, check_scale_invariance(alpha, 8, lam, t=2.5, u=u))
    ok = worst < 1e-8
    record_criterion(8, "scale-invariance", ok, f"max dev {worst:.2e}")
    assert worst < 1e-8


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
def test_c09_ode_consistency(alpha):
    report = ode_consistency(alpha, 8, np.sin, t=3.0)
    ratio = report.detail[-1]["convergence_ratio"]
    ok = report.max_deviation < 1e-6 and 3.5 <= ratio <= 4.5
    record_criterion(9, "ode-consistency", ok,
                     f"alpha={alpha}: dev {report.max_deviation:.2e}, ratio {ratio:.2f}")
    assert report.max_deviation < 1e-6
    assert 3.5 <= ratio <= 4.5


def test_c10_offdiag_monotonicity():
    mats = {alpha: build_A(alpha, 17) for alpha in ALPHA_GRID}
    increasing = True
    for n in range(1, 17):
        for k in range(n):
            trace = [mats[alpha][n, k] for alpha in ALPHA_GRID]
            increasing &= all(x < y for x, y in zip(trace, trace[1:]))
    gap_ok = True
    lo, hi = mats[ALPHA_GRID[0]], mats[ALPHA_GRID[-1]]
    for n in range(2, 17):
        growth = [(hi[n, k] - lo[n, k]) / lo[n, k] for k in range(n)]
        gap_ok &= all(x > y for x, y in zip(growth, growth[1:]))
    ok = increasing and gap_ok
    record_criterion(10, "offdiag-monotonicity", ok,
                     f"increasing={increasing}, gap amplification={gap_ok}")
    assert increasing
    assert gap_ok


def test_c11_layer_equivalence():
    report = _check_layer_equivalence(np.random.default_rng(31), systems=50)
    # the layer and its chunked reference on one 64-state bank at L = 65536:
    # reported, not gated
    rng = np.random.default_rng(11)
    ssm = _random_system(rng, 64)
    weights = LayerWeights(c_tilde=rng.standard_normal((1, 64)) + 0j, w_out=np.eye(1),
                           w_gate=np.eye(1))
    u = SequenceBatch(rng.standard_normal((65536, 1)))
    config = FilterBankConfig(channels=1, block_state=64)
    seconds = {}
    for name, run in (("layer", lambda: layer_forward(config, weights, [ssm], u)),
                      ("reference", lambda: _layer_reference([ssm], u, weights))):
        t0 = time.perf_counter()
        run()
        seconds[name] = time.perf_counter() - t0
    ok = report.max_deviation < 1e-10
    record_criterion(
        11, "layer-equivalence", ok,
        f"{len(report.detail)} layers max rel dev {report.max_deviation:.2e}; layer "
        f"convolution {seconds['layer']:.3f}s, chunked reference "
        f"{seconds['reference']:.3f}s (not gated)")
    assert report.max_deviation < 1e-10


def test_c12_zoh_limit():
    worst = 0.0
    stable = True
    for alpha in (0.0, 0.45, 0.9):
        init = spectral_init(alpha, 8)
        ssm = zoh_discretize(init, 1e-6)
        rel = float(np.max(np.abs(ssm.b_bar / 1e-6 - init.b_tilde)
                           / np.abs(init.b_tilde)))
        worst = max(worst, rel)
        for delta in (1e-4, 1e-2, 1.0, 50.0):
            stable &= bool(np.all(np.abs(zoh_discretize(init, delta).lambda_bar) < 1.0))
    ok = worst < 1e-4 and stable
    record_criterion(12, "zoh-limit", ok, f"rel dev {worst:.2e}, stable={stable}")
    assert worst < 1e-4
    assert stable


def test_c13_determinism(tmp_path, capsys):
    op1, op2 = tmp_path / "op1.json", tmp_path / "op2.json"
    assert cli_main(["matrix", "--alpha", "0.6", "--n", "8", "--out", str(op1)]) == 0
    assert cli_main(["matrix", "--alpha", "0.6", "--n", "8", "--out", str(op2)]) == 0
    matrix_same = op1.read_bytes() == op2.read_bytes()

    from fractalssm import fileio
    from fractalssm.ssm import FilterBankConfig, LayerWeights, SequenceBatch, build_filter_bank
    rng = np.random.default_rng(9)
    config = FilterBankConfig(channels=2, block_state=3, delta=0.05)
    weights = LayerWeights(
        c_tilde=rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6)),
        w_out=np.eye(1), w_gate=np.eye(1))
    model = tmp_path / "model.json"
    fileio.write_model_file(model, config, build_filter_bank(config), weights)
    seq = tmp_path / "in.csv"
    fileio.write_sequence_csv(seq, SequenceBatch(rng.standard_normal((32, 1))))
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["run", "--model", str(model), "--input", str(seq),
                     "--out", str(r1)]) == 0
    assert cli_main(["run", "--model", str(model), "--input", str(seq),
                     "--out", str(r2)]) == 0
    run_same = r1.read_bytes() == r2.read_bytes()

    capsys.readouterr()
    with capsys.disabled():
        record_criterion(13, "end-to-end-determinism", matrix_same and run_same,
                         f"matrix identical={matrix_same}, run identical={run_same}")
    assert matrix_same
    assert run_same

"""Oracle-module tests: projection coefficients, ODE check, suite wiring."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

from fractalssm import ssm as ssm_mod
from fractalssm import measure, verify
from fractalssm.quadrature import gauss_jacobi
from fractalssm.specfun import JacobiParam, basis_scale, jacobi_eval_all
from fractalssm.ssm import (DiscreteDiagonalSSM, FilterBankConfig, LayerWeights, SequenceBatch,
                            layer_forward)
from fractalssm.verify import (OracleReport, check_scale_invariance, ode_consistency,
                               projection_coefficients, run_full_suite)


class TestProjectionCoefficients:
    def test_constant_projects_to_leading(self):
        for alpha in (0.0, 0.5, 0.9):
            x = projection_coefficients(lambda s: np.full_like(s, 3.2),
                                        alpha, 6, t=2.0, order=32)
            assert x[0] == pytest.approx(3.2, abs=1e-12)
            assert np.max(np.abs(x[1:])) < 1e-12

    def test_basis_function_projects_to_unit_vector(self):
        alpha, t = 0.4, 1.7
        gammas, _ = basis_scale(alpha, 2)

        def u(tau):
            vals = jacobi_eval_all(JacobiParam(-alpha, 0.0), 1, 2 * tau / t - 1)
            return gammas[1] * vals[1]

        x = projection_coefficients(u, alpha, 5, t, order=32)
        expected = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(x - expected)) < 1e-10

    def test_uniform_linear_ramp(self):
        # analytic Legendre integrals of u(tau) = tau on t = 1
        x = projection_coefficients(lambda s: s, 0.0, 3, t=1.0, order=16)
        assert x[0] == pytest.approx(0.5, abs=1e-14)
        assert x[1] == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-14)
        assert x[2] == pytest.approx(0.0, abs=1e-14)

    def test_order_floor(self):
        with pytest.raises(ValueError):
            projection_coefficients(np.sin, 0.3, 8, 1.0, order=8)

    def test_bounds_come_before_the_order_floor(self):
        # the order floor 2n means nothing for an n or alpha out of range
        with pytest.raises(ValueError, match=r"\[1, 256\], got 300"):
            projection_coefficients(np.sin, 0.5, 300, 1.0, order=10)
        with pytest.raises(ValueError, match=r"\[0, 0\.95\]"):
            projection_coefficients(np.sin, 0.97, 4, 1.0, order=2)

    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
    def test_time_must_be_finite_and_positive(self, t):
        with pytest.raises(ValueError, match="current time"):
            projection_coefficients(np.sin, 0.5, 4, t, 16)

    def test_nonfinite_signal(self):
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError):
            projection_coefficients(lambda s: 1.0 / (s - s), 0.3, 2, 1.0, order=8)

    def test_operators_alpha_bound_not_the_measures(self):
        # the oracles take the pair's [0, 0.95]; the measure and basis keep [0, 1)
        with pytest.raises(ValueError, match=r"\[0, 0\.95\]"):
            projection_coefficients(np.sin, 0.97, 4, 1.0, 8)
        with pytest.raises(ValueError, match=r"\[0, 0\.95\]"):
            check_scale_invariance(0.97, 4, 2.0)
        gammas, _ = basis_scale(0.99, 8)
        assert np.all(np.isfinite(gammas))
        assert np.isfinite(measure.density(measure.FractionalMeasure(0.99), 0.5))


class TestRuleReuse:
    """A check builds its Gauss-Jacobi rule once and projects every signal with it."""

    @pytest.fixture
    def orders_built(self, monkeypatch):
        orders = []

        def spy(param, order):
            orders.append(order)
            return gauss_jacobi(param, order)

        monkeypatch.setattr(verify, "gauss_jacobi", spy)
        return orders

    def test_ode_consistency_builds_one_rule(self, orders_built):
        ode_consistency(0.5, 8, np.sin, t=3.0)
        assert orders_built == [64]

    def test_scale_invariance_builds_one_rule(self, orders_built):
        check_scale_invariance(0.5, 8, 2.0)
        assert orders_built == [32]

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_projector_matches_projection_coefficients(self, alpha):
        project = verify._projector(alpha, 8, 64)
        for t in (3.0, 3.0003, 2.9997, 1.5):
            assert np.array_equal(project(np.sin, t),
                                  projection_coefficients(np.sin, alpha, 8, t, 64))


class TestOdeConsistency:
    def test_uniform_measure_sine(self):
        report = ode_consistency(0.0, 8, np.sin, t=3.0)
        assert report.passed
        assert report.max_deviation < 1e-6
        ratio = report.detail[-1]["convergence_ratio"]
        assert 3.5 <= ratio <= 4.5

    def test_uniform_measure_quadratic(self):
        report = ode_consistency(0.0, 8, lambda s: s ** 2, t=3.0)
        assert report.max_deviation < 1e-8

    def test_uniform_measure_constant(self):
        report = ode_consistency(0.0, 6, lambda s: np.full_like(s, 1.3), t=2.0)
        assert report.max_deviation < 1e-10

    def test_step_validation(self):
        with pytest.raises(ValueError):
            ode_consistency(0.0, 4, np.sin, t=1.0, h=0.6)

    def test_report_is_structured(self):
        report = ode_consistency(0.0, 4, np.sin, t=3.0)
        assert report.name == "ode-consistency[alpha=0]"
        assert len(report.detail) == 3
        assert report.passed == (report.max_deviation <= report.tolerance)

    def test_close_alphas_get_distinct_names(self):
        names = [ode_consistency(alpha, 4, np.sin, t=3.0).name for alpha in (0.1, 0.1000001)]
        assert names == ["ode-consistency[alpha=0.1]", "ode-consistency[alpha=0.1000001]"]

    # projections run at t, t + h, t - h, t + h/2 and t - h/2, in that order
    @pytest.mark.parametrize("call", [2, 4, 5], ids=["step-h", "half-step", "half-step-back"])
    def test_nan_in_either_row_fails(self, monkeypatch, call):
        real = verify._projector
        calls = itertools.count(1)

        def projector(*args):
            project = real(*args)
            return lambda u, t: (np.full(8, np.nan) if next(calls) == call
                                 else project(u, t))

        monkeypatch.setattr(verify, "_projector", projector)
        report = ode_consistency(0.0, 8, np.sin, t=3.0)
        assert next(calls) == 6
        assert math.isnan(report.max_deviation) and not report.passed
        assert math.isnan(report.detail[-1]["convergence_ratio"])


class TestOracleReport:
    @pytest.mark.parametrize("deviation,tolerance,passed", [
        (1.0, 0.0, False), (0.0, 0.0, True), (np.float64(1e-12), 1e-10, True),
        (math.nan, 1e-10, False), (math.inf, math.nan, False)])
    def test_verdict_follows_deviation_and_tolerance(self, deviation, tolerance, passed):
        # `is`: a Python bool, which json serializes and np.bool_ is not
        assert OracleReport("check", deviation, tolerance).passed is passed

    def test_verdict_cannot_be_stored(self):
        with pytest.raises(TypeError):
            OracleReport("check", 1.0, 0.0, passed=True)


class TestMonotonicityCheck:
    def test_falling_entry_fails_and_is_named(self, monkeypatch):
        build_A = verify.build_A

        def falling(alpha, n):
            a = build_A(alpha, n)
            a[3, 1] = 10.0 - alpha
            return a

        monkeypatch.setattr(verify, "build_A", falling)
        report = verify._check_monotonicity([0.0, 0.5, 0.9], 8)
        assert not report.passed
        assert report.max_deviation == 2.0
        rows = [row for row in report.detail if "entry" in row]
        assert rows == [{"entry": (3, 1), "trace": [10.0, 9.5, 10.0 - 0.9]}]
        # row 3's relative growth now falls at column 1 and rises at column 2
        assert [row["gap_violation_row"] for row in report.detail
                if "gap_violation_row" in row] == [3]
        assert report.detail[-1] == {"strictly_increasing": False, "gap_amplification": False}


class TestGalerkinProjectionCheck:
    def test_every_entry_on_and_below_the_diagonal(self):
        report = verify._check_galerkin_projection([0.0, 0.95], 32)
        assert report.passed
        assert report.max_deviation < 1e-13
        assert [row["alpha"] for row in report.detail] == [0.0, 0.95]

    def test_scaled_subdiagonal_entry_turns_only_this_check_red(self, monkeypatch):
        intact = {r.name: r.passed for r in run_full_suite([0.9], 8, seed=1)}
        build_A = verify.build_A

        def scaled(alpha, n):
            a = build_A(alpha, n)
            if alpha == 0.9:   # legs-recovery catches a change at alpha = 0 itself
                a[5, 4] *= 1 + 1e-9
            return a

        monkeypatch.setattr(verify, "build_A", scaled)
        reports = run_full_suite([0.9], 8, seed=1)
        assert [r.name for r in reports] == list(intact)
        assert {r.name for r in reports if r.passed != intact[r.name]} == {"galerkin-projection"}
        report = next(r for r in reports if r.name == "galerkin-projection")
        assert report.detail[0]["entry"] == (5, 4)
        assert report.max_deviation == pytest.approx(1e-9, rel=1e-4)


@pytest.fixture(scope="module")
def uniform_suite():
    return run_full_suite([0.0], 8, seed=1)


class TestRunFullSuite:
    def test_empty_grid(self):
        assert run_full_suite([], 8) == []

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            run_full_suite([0.99], 8)

    @pytest.mark.parametrize("grid", [[0.5, 0.5], [0.0, 0.5, 0.5], [0.0, -0.0]],
                             ids=["pair", "triple", "signed-zero"])
    def test_repeated_alpha_rejected_before_any_check(self, grid, monkeypatch):
        # equal alphas would fail offdiag-monotonicity and repeat a report name
        def no_check(*args, **kwargs):
            pytest.fail("a check ran before the grid was validated")

        for name in dir(verify):
            if name.startswith("_check_") or name == "ode_consistency":
                monkeypatch.setattr(verify, name, no_check)
        with pytest.raises(ValueError, match="repeats an alpha"):
            run_full_suite(grid, 8)

    def test_uniform_grid_analytic_checks_pass(self, uniform_suite):
        reports = {r.name: r for r in uniform_suite}
        for name in ("measure-normalization", "scale-invariance",
                     "basis-orthonormality", "galerkin-projection", "legs-recovery",
                     "table-alpha0", "eigenvalue-invariance",
                     "input-vector-closed-form", "offdiag-monotonicity",
                     "layer-equivalence", "zoh-limit", "ode-consistency[alpha=0]"):
            assert name in reports
            assert reports[name].passed, f"{name}: {reports[name].max_deviation}"

    def test_half_index_triggers_table_check(self):
        reports = {r.name for r in run_full_suite([0.5], 6, seed=1)}
        assert "table-alpha05" in reports
        assert "table-alpha0" not in reports

    @pytest.mark.parametrize("grid, tables", [
        ([1e-13], set()),
        ([0.5 + 1e-13], set()),
        ([0.0, 0.5], {"table-alpha0", "table-alpha05"}),
    ], ids=["near-0", "near-0.5", "both"])
    def test_table_checks_need_their_alpha_exactly(self, grid, tables):
        # the tables print A(0) and A(0.5): an alpha 1e-13 away is not theirs
        names = {r.name for r in run_full_suite(grid, 2)}
        assert {name for name in names if name.startswith("table-")} == tables

    def test_reports_are_consistent_records(self, uniform_suite):
        for report in uniform_suite:
            assert isinstance(report, OracleReport)
            assert report.passed == (report.max_deviation <= report.tolerance)

    def test_every_report_is_timed(self, uniform_suite):
        assert all(report.seconds > 0.0 for report in uniform_suite)
        # only the suite times a check
        assert ode_consistency(0.0, 4, np.sin, t=3.0).seconds == 0.0

    def test_scipy_import_is_charged_to_no_check(self):
        # measure-normalization runs first and builds the suite's first
        # Gauss-Jacobi rules, so a one-time cost of the first rule, such as
        # a lazy import of its eigensolver, would land in its seconds; in a
        # fresh interpreter its own arithmetic takes far less than 0.05 s
        src = str(Path(verify.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = ("from fractalssm.verify import run_full_suite\n"
                "reports = run_full_suite([0.0], 2)\n"
                "print(next(r.seconds for r in reports if r.name == 'measure-normalization'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 0.05

    def test_raising_check_is_a_failed_report(self, uniform_suite, monkeypatch):
        def broken_layer(*args, **kwargs):
            raise ValueError("window shape cannot be larger than input array shape")

        monkeypatch.setattr(verify, "layer_forward", broken_layer)
        reports = run_full_suite([0.0], 8, seed=1)
        assert [r.name for r in reports] == [r.name for r in uniform_suite]
        for report, intact in zip(reports, uniform_suite):
            if report.name != "layer-equivalence":
                assert report.passed == intact.passed, report.name
        crashed = next(r for r in reports if r.name == "layer-equivalence")
        assert not crashed.passed
        assert crashed.max_deviation == math.inf
        assert crashed.detail == [
            {"error": "ValueError: window shape cannot be larger than input array shape"}]
        assert crashed.seconds > 0.0

    def test_every_check_keeps_its_name_when_it_raises(self, uniform_suite, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        for name in dir(verify):
            if name.startswith("_check_"):
                monkeypatch.setattr(verify, name, crash)
        monkeypatch.setattr(verify, "ode_consistency", crash)
        reports = run_full_suite([0.0], 8, seed=1)
        assert [r.name for r in reports] == [r.name for r in uniform_suite]
        assert all(not r.passed and r.detail == [{"error": "RuntimeError: boom"}]
                   for r in reports)

    def test_close_alphas_keep_distinct_names_when_they_raise(self, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        for name in dir(verify):
            if name.startswith("_check_") or name == "ode_consistency":
                monkeypatch.setattr(verify, name, crash)
        # :g named both of these ode-consistency[alpha=0.1]
        names = [r.name for r in run_full_suite([0.1, 0.1000001], 2)]
        assert names[-2:] == ["ode-consistency[alpha=0.1]", "ode-consistency[alpha=0.1000001]"]


def nan_last(values):
    """A copy of values with its last entry NaN."""
    out = np.array(values, dtype=np.result_type(values, float))
    out.flat[-1] = np.nan
    return out


def with_nan_subdiagonal(a):
    out = a.copy()
    out[-1, -2] = np.nan   # offdiag-monotonicity reads no diagonal entry
    return out


def with_nan_output(batch):
    batch.values[-1, 0] = np.nan
    return batch


_GRID = (0.0, 0.5, 0.9)

# (check, owner, function, its call that feeds the check's last row, plant, run)
_NAN_ROWS = [
    ("measure-normalization", verify.measure_mod, "total_mass", 3,
     lambda _: math.nan, lambda: verify._check_measure_normalization(_GRID)),
    ("scale-invariance", verify, "check_scale_invariance", 20,
     lambda _: math.nan, lambda: verify._check_scale_invariance(np.random.default_rng(0))),
    ("basis-orthonormality", verify, "basis_scale", 3,
     lambda scales: (scales[0], nan_last(scales[1])),
     lambda: verify._check_orthonormality(_GRID, 8)),
    ("galerkin-projection", verify, "build_A", 3, nan_last,
     lambda: verify._check_galerkin_projection(_GRID, 8)),
    ("legs-recovery", verify, "build_B", 1, nan_last,
     lambda: verify._check_legs_recovery(8)),
    ("table-alpha0", verify, "build_A", 1, nan_last,
     lambda: verify._check_table(0.0, verify.TABLE_ALPHA0, "table-alpha0")),
    ("table-alpha05", verify, "build_A", 1, nan_last,
     lambda: verify._check_table(0.5, verify.TABLE_ALPHA05, "table-alpha05")),
    ("eigenvalue-invariance", np.linalg, "eigvals", 3, nan_last,
     lambda: verify._check_eigenvalue_invariance(_GRID, 8)),
    ("condition-growth", verify, "condition_number", len(verify.CONDITION_TABLE),
     lambda _: math.nan, verify._check_condition_growth),
    ("input-vector-closed-form", verify, "build_B", 3, nan_last,
     lambda: verify._check_b_closed_form(_GRID, 8)),
    ("offdiag-monotonicity", verify, "build_A", 3, with_nan_subdiagonal,
     lambda: verify._check_monotonicity(_GRID, 8)),
    ("layer-equivalence", verify, "layer_forward", 3 + len(verify._BANK_LAYERS), with_nan_output,
     lambda: verify._check_layer_equivalence(np.random.default_rng(0), systems=3)),
    ("zoh-limit", verify, "spectral_init", 3,
     lambda init: dataclasses.replace(init, b_tilde=nan_last(init.b_tilde)),
     lambda: verify._check_zoh_limit(_GRID)),
]


@pytest.mark.parametrize("name, owner, function, call, plant, run", _NAN_ROWS,
                         ids=[case[0] for case in _NAN_ROWS])
def test_nan_in_last_row_fails_the_check(monkeypatch, name, owner, function, call,
                                         plant, run):
    # Python's max() keeps a NaN only when it comes first; a NaN in a check's
    # last row must still fail the check
    real = getattr(owner, function)
    calls = itertools.count(1)

    def planted(*args, **kwargs):
        out = real(*args, **kwargs)
        return plant(out) if next(calls) == call else out

    monkeypatch.setattr(owner, function, planted)
    report = run()
    assert next(calls) == call + 1, "the planted call is not the check's last"
    assert report.name == name
    assert report.passed is False


class TestScanEquivalenceGroups:
    """The layer-equivalence oracle, which checks layer_forward against
    _layer_reference."""

    @staticmethod
    def draws(rng, systems):
        # the oracle's draws: every (system, input) pair, then every layer's weights
        pairs = []
        for trial in range(systems):
            ssm = verify._random_system(rng, int(rng.integers(1, 65)))
            length = [16, 1024, 65536][trial % 3] if trial < 45 else 65536
            pairs.append((ssm, SequenceBatch(rng.standard_normal((length, 1)))))
        weights = []
        for ssm, _ in pairs:
            n = ssm.lambda_bar.size
            c = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
            w_out, w_gate = rng.standard_normal((1, 1)), rng.standard_normal((1, 1))
            weights.append(LayerWeights(c_tilde=c, w_out=w_out, w_gate=w_gate,
                                        d=float(rng.standard_normal())))
        return pairs, weights

    def test_deviations_match_per_system_recurrence(self):
        # the same draws as the oracle makes, checked one system at a time
        report = verify._check_layer_equivalence(np.random.default_rng(4), systems=7)
        pairs, weights = self.draws(np.random.default_rng(4), 7)
        assert len(report.detail) == 7 + len(verify._BANK_LAYERS)
        for row, (ssm, u), w in zip(report.detail, pairs, weights):
            config = FilterBankConfig(channels=1, block_state=ssm.lambda_bar.size)
            conv = layer_forward(config, w, [ssm], u).values
            ref = verify._layer_reference([ssm], u, w)
            dev = float(np.max(np.abs(conv - ref))) / float(np.max(np.abs(ref)))
            assert (row["n"], row["length"]) == (ssm.lambda_bar.size, u.length)
            assert (row["channels"], row["input_width"], row["output_width"]) == (1, 1, 1)
            assert abs(row["relative_deviation"] - dev) <= 1e-14
        assert report.max_deviation == max(row["relative_deviation"] for row in report.detail)

    def test_bank_rows_report_their_shape(self):
        report = verify._check_layer_equivalence(np.random.default_rng(0))
        # the 50 one-channel rows come first, as drawn before the banks were added
        pairs, _ = self.draws(np.random.default_rng(0), 50)
        assert [(row["n"], row["length"]) for row in report.detail[:50]] == [
            (ssm.lambda_bar.size, u.length) for ssm, u in pairs]
        banks = report.detail[50:]
        assert [(row["input_width"], row["output_width"], row["length"]) for row in banks] \
            == list(verify._BANK_LAYERS)
        assert all(2 <= row["channels"] <= 4 and 1 <= row["n"] <= 16 for row in banks)
        assert all(row["relative_deviation"] < 1e-10 for row in report.detail)

    @staticmethod
    def flagged(report):
        return [i for i, row in enumerate(report.detail) if not row["relative_deviation"] <= 1e-10]

    @staticmethod
    def run_with_layer(monkeypatch, change_weights):
        # layer_forward with its weights changed by change_weights(config, weights)
        def layer(config, weights, ssms, z_in):
            return layer_forward(config, change_weights(config, weights), ssms, z_in)

        monkeypatch.setattr(verify, "layer_forward", layer)
        return verify._check_layer_equivalence(np.random.default_rng(6), systems=3)

    def test_transposed_output_mix_fails(self, monkeypatch):
        report = self.run_with_layer(
            monkeypatch, lambda config, w: dataclasses.replace(w, w_out=w.w_out.T))
        assert not report.passed
        assert self.flagged(report) == [i for i, row in enumerate(report.detail)
                                        if row["output_width"] > 1]

    def test_swapped_channel_blocks_fail(self, monkeypatch):
        def swap(config, w):
            if config.channels == 1:
                return w
            block = config.block_state
            c = w.c_tilde.copy()
            c[:, :2 * block] = np.roll(c[:, :2 * block], block, axis=1)
            return dataclasses.replace(w, c_tilde=c)

        report = self.run_with_layer(monkeypatch, swap)
        assert not report.passed
        assert self.flagged(report) == list(range(3, 3 + len(verify._BANK_LAYERS)))

    def test_gate_from_first_input_fails(self, monkeypatch):
        real = ssm_mod._silu_gate
        monkeypatch.setattr(ssm_mod, "_silu_gate", lambda z, w_gate: real(z[:, :1], w_gate[:, :1]))
        report = verify._check_layer_equivalence(np.random.default_rng(6), systems=3)
        assert not report.passed
        assert self.flagged(report) == [i for i, row in enumerate(report.detail)
                                        if row["input_width"] > 1]

    @staticmethod
    def late_error(monkeypatch, seed, systems, index, error):
        # applies error(values) to the layer output of drawn system `index` alone,
        # known by its poles; the oracle then runs with `seed` and `systems`
        pairs, _ = TestScanEquivalenceGroups.draws(np.random.default_rng(seed), systems)
        poles = pairs[index][0].lambda_bar

        def layer(config, weights, ssms, z_in):
            out = layer_forward(config, weights, ssms, z_in)
            if np.array_equal(ssms[0].lambda_bar, poles):
                error(out.values)
            return out

        monkeypatch.setattr(verify, "layer_forward", layer)
        return verify._check_layer_equivalence(np.random.default_rng(seed), systems=systems)

    def test_perturbed_system_fails_alone(self, monkeypatch):
        # a 65536-step system, perturbed far past its first chunks
        def perturb(values):
            values[4096 + 123, 0] += 1e-6 * np.max(np.abs(values))

        report = self.late_error(monkeypatch, 2, 9, 5, perturb)
        flagged = [i for i, row in enumerate(report.detail)
                   if row["relative_deviation"] > 1e-10]
        assert flagged == [5]
        assert not report.passed

    def test_truncated_kernel_fails(self, monkeypatch):
        real_kernel = ssm_mod._output_kernel

        def half_kernel(poles, residues, taps):
            kernel = real_kernel(poles, residues, taps)
            return kernel[:-(-len(kernel) // 2)]

        monkeypatch.setattr(ssm_mod, "_output_kernel", half_kernel)
        report = verify._check_layer_equivalence(np.random.default_rng(0))
        assert not report.passed
        assert report.max_deviation > 1e-2

    def test_delayed_output_fails(self, monkeypatch):
        def delayed_layer(config, weights, ssms, z_in):
            out = layer_forward(config, weights, ssms, z_in)
            out.values[1:] = out.values[:-1].copy()
            out.values[0] = 0.0
            return out

        monkeypatch.setattr(verify, "layer_forward", delayed_layer)
        report = verify._check_layer_equivalence(np.random.default_rng(0))
        assert not report.passed
        assert report.max_deviation > 1e-2


class TestChunkedReference:
    """_layer_reference, the chunked recurrence of layer-equivalence, against the
    layer recomputed state by state with scipy's lfilter."""

    @staticmethod
    def per_state_layer(ssms, u, w):
        # each state's recurrence x_k = lambda x_{k-1} + b . u_k runs through
        # lfilter, one input column at a time; output map, feedthrough and
        # gate are written out
        x = u.values
        d = w.d * np.eye(w.c_tilde.shape[0], u.width) if np.isscalar(w.d) else w.d
        y = x @ d.T
        lam = np.concatenate([ssm.lambda_bar for ssm in ssms])
        b = np.concatenate([ssm.b_bar for ssm in ssms])
        for n in range(lam.size):
            state = sum(lfilter([b[n, i]], [1.0, -lam[n]], x[:, i]) for i in range(u.width))
            y += (np.outer(state, w.c_tilde[:, n])).real
        g = x @ w.w_gate.T
        return y @ w.w_out.T * g / (1.0 + np.exp(-g))

    @staticmethod
    def triple(rng, n, length):
        # every pole at radius 0.995, the slowest decay the oracle draws
        phase = rng.uniform(-np.pi, np.pi, size=n)
        ssm = DiscreteDiagonalSSM(lambda_bar=0.995 * np.exp(1j * phase),
                                  b_bar=rng.standard_normal((n, 1))
                                  + 1j * rng.standard_normal((n, 1)), delta=1.0)
        weights = LayerWeights(
            c_tilde=rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n)),
            w_out=rng.standard_normal((1, 1)), w_gate=rng.standard_normal((1, 1)),
            d=float(rng.standard_normal()))
        return ssm, SequenceBatch(rng.standard_normal((length, 1))), weights

    # 1, 16, 63, 65, 1000 and 4097 end in a partial chunk, 64 in a whole one;
    # 65 is one step past a chunk, and 4097 and 65536 carry across many
    @pytest.mark.parametrize("length", [1, 16, 63, 64, 65, 1000, 4097, 65536])
    @pytest.mark.parametrize("sizes", [(1,), (64,), (1, 64)])
    def test_rows_match_sequential_layer(self, length, sizes):
        rng = np.random.default_rng(length)
        for ssm, u, w in [self.triple(rng, n, length) for n in sizes]:
            seq = self.per_state_layer([ssm], u, w)
            ref = verify._layer_reference([ssm], u, w)
            assert ref.shape == seq.shape == (length, 1)
            assert np.max(np.abs(ref - seq)) <= 1e-13 * np.max(np.abs(seq))

    # a matrix D with three inputs and two outputs, and a scalar D standing for D I
    @pytest.mark.parametrize("widths, d", [((3, 2), None), ((2, 2), -0.7)])
    @pytest.mark.parametrize("length", [17, 64, 1000, 4097])
    def test_bank_matches_sequential_layer(self, widths, d, length):
        width, out_width = widths
        rng = np.random.default_rng(length)
        ssms = [dataclasses.replace(verify._random_system(rng, 5),
                                    b_bar=rng.standard_normal((5, width))
                                    + 1j * rng.standard_normal((5, width)))
                for _ in range(3)]
        w = LayerWeights(
            c_tilde=(rng.standard_normal((out_width, 15))
                     + 1j * rng.standard_normal((out_width, 15))),
            w_out=rng.standard_normal((out_width, out_width)),
            w_gate=rng.standard_normal((out_width, width)),
            d=rng.standard_normal((out_width, width)) if d is None else d)
        u = SequenceBatch(rng.standard_normal((length, width)))
        seq = self.per_state_layer(ssms, u, w)
        ref = verify._layer_reference(ssms, u, w)
        assert ref.shape == seq.shape == (length, out_width)
        assert np.max(np.abs(ref - seq)) <= 1e-13 * np.max(np.abs(seq))

    # chunk counts around 64 and 1024: the carried rows, one fewer than the
    # chunks, reach a power of two at 65 and 1025, where the doubling scan's
    # last level adds half of them
    @pytest.mark.parametrize("chunks", [1, 2, 3, 63, 64, 65, 1023, 1024, 1025])
    def test_carry_scan_matches_per_chunk_recurrence(self, chunks):
        rng = np.random.default_rng(chunks)
        # radius 0 stops the state at once, radius 1 keeps it undamped
        radius = np.repeat([0.0, 0.05, 0.5, 0.995, 1.0], 4)
        lam = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, radius.size))
        decay = lam ** verify._LAYER_CHUNK
        ends = (rng.standard_normal((chunks, radius.size))
                + 1j * rng.standard_normal((chunks, radius.size)))
        # the per-chunk carry the scan replaced: h_j = lambda^T h_{j-1} + ends_{j-1}
        h = np.zeros_like(ends)
        for j in range(1, chunks):
            h[j] = decay * h[j - 1] + ends[j - 1]
        carried = ends[:-1].copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                verify._carry_scan(carried, decay)
        assert carried.shape == (chunks - 1, radius.size)
        error = np.max(np.abs(carried - h[1:]), axis=0, initial=0.0)
        assert np.all(error <= 1e-13 * np.max(np.abs(h), axis=0, initial=0.0))

    def test_carry_scan_flushes_subnormal_powers(self):
        # decay^2 = 1e-320 is below finfo.tiny, so the level at shift 2 adds
        # nothing: x[2] stays exactly 0 where the recurrence gives 1e-320
        x = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        verify._carry_scan(x, np.array([1e-160]))
        assert x[1, 0] == 1e-160
        assert x[2, 0] == 0.0

    def test_nan_fails_its_row_alone(self, monkeypatch):
        def poison(values):
            values[4096 + 7, 0] = np.nan

        report = TestScanEquivalenceGroups.late_error(monkeypatch, 3, 12, 8, poison)
        flagged = [i for i, row in enumerate(report.detail)
                   if not row["relative_deviation"] <= 1e-10]
        assert flagged == [8]
        assert math.isnan(report.detail[8]["relative_deviation"])
        assert not report.passed

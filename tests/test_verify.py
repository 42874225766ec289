"""Oracle-module tests: projection coefficients, ODE check, suite wiring."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fractalssm import ssm as ssm_mod
from fractalssm import verify
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

    def test_nonfinite_signal(self):
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError):
            projection_coefficients(lambda s: 1.0 / (s - s), 0.3, 2, 1.0, order=8)


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


class TestScanEquivalenceGroups:
    """The layer-equivalence oracle, which checks layer_forward's scan=True path."""

    @staticmethod
    def draws(rng, systems):
        # the oracle's draws: every (system, input) pair, then every layer's weights
        pairs = []
        for trial in range(systems):
            ssm = verify._random_system(rng, int(rng.integers(1, 65)))
            length = [16, 1024, 65536][trial % 3]
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
        assert len(report.detail) == 7
        for row, (ssm, u), w in zip(report.detail, pairs, weights):
            config = FilterBankConfig(channels=1, block_state=ssm.lambda_bar.size)
            conv = layer_forward(config, w, [ssm], u, scan=True).values
            seq = layer_forward(config, w, [ssm], u, scan=False).values
            dev = float(np.max(np.abs(conv - seq))) / float(np.max(np.abs(seq)))
            assert (row["n"], row["length"]) == (ssm.lambda_bar.size, u.length)
            assert abs(row["relative_deviation"] - dev) <= 1e-14
        assert report.max_deviation == max(row["relative_deviation"] for row in report.detail)

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

        def half_kernel(ssms, c_tilde, length):
            kernel = real_kernel(ssms, c_tilde, length)
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
    per-step layer."""

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
            config = FilterBankConfig(channels=1, block_state=ssm.lambda_bar.size)
            seq = layer_forward(config, w, [ssm], u, scan=False).values[:, 0]
            ref = verify._layer_reference(ssm, u, w)
            assert ref.shape == seq.shape
            assert np.max(np.abs(ref - seq)) <= 1e-13 * np.max(np.abs(seq))

    def test_nan_fails_its_row_alone(self, monkeypatch):
        def poison(values):
            values[4096 + 7, 0] = np.nan

        report = TestScanEquivalenceGroups.late_error(monkeypatch, 3, 12, 8, poison)
        flagged = [i for i, row in enumerate(report.detail)
                   if not row["relative_deviation"] <= 1e-10]
        assert flagged == [8]
        assert math.isnan(report.detail[8]["relative_deviation"])
        assert not report.passed

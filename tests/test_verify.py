"""Oracle-module tests: projection coefficients, ODE check, suite wiring."""

import math

import numpy as np
import pytest

from fractalssm import verify
from fractalssm.specfun import JacobiParam, basis_scale, jacobi_eval_all
from fractalssm.ssm import SequenceBatch, recur_scan, recur_sequential
from fractalssm.verify import (OracleReport, ode_consistency, projection_coefficients,
                               random_system, run_full_suite)


class TestProjectionCoefficients:
    def test_constant_projects_to_leading(self):
        for alpha in (0.0, 0.5, 0.9):
            x = projection_coefficients(lambda s: np.full_like(s, 3.2),
                                        alpha, 6, t=2.0, order=32)
            assert x[0] == pytest.approx(3.2, abs=1e-12)
            assert np.max(np.abs(x[1:])) < 1e-12

    def test_basis_function_projects_to_unit_vector(self):
        alpha, t = 0.4, 1.7
        scale = basis_scale(alpha, 1)

        def u(tau):
            vals = jacobi_eval_all(JacobiParam(-alpha, 0.0), 1, 2 * tau / t - 1)
            return scale.gamma_n * vals[1]

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
                     "basis-orthonormality", "diagonal-invariance", "legs-recovery",
                     "table-alpha0", "eigenvalue-invariance",
                     "input-vector-closed-form", "offdiag-monotonicity",
                     "scan-equivalence", "zoh-limit", "ode-consistency[alpha=0]"):
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


class TestScanEquivalenceGroups:
    def test_deviations_match_per_system_recurrence(self):
        # the same draws as the oracle makes, checked one system at a time
        report = verify._check_scan_equivalence(np.random.default_rng(4), systems=7)
        rng = np.random.default_rng(4)
        assert len(report.detail) == 7
        for trial, row in enumerate(report.detail):
            n = int(rng.integers(1, 65))
            length = [16, 1024, 65536][trial % 3]
            ssm = random_system(rng, n)
            u = SequenceBatch(rng.standard_normal((length, 1)))
            seq = recur_sequential(ssm, u)
            dev = float(np.max(np.abs(recur_scan(ssm, u) - seq))) / float(np.max(np.abs(seq)))
            assert (row["n"], row["length"]) == (n, length)
            assert row["relative_deviation"] == dev
        assert report.max_deviation == max(row["relative_deviation"] for row in report.detail)

    def test_groups_share_a_length_and_the_state_cap(self):
        rng = np.random.default_rng(0)
        drawn = [(random_system(rng, int(n)), SequenceBatch(np.zeros((length, 1))))
                 for n, length in zip(rng.integers(1, 65, size=40), [16, 64, 16, 64] * 10)]
        groups = verify._scan_groups(drawn)
        assert sorted(i for group in groups for i in group) == list(range(40))
        for group in groups:
            assert len({drawn[i][1].length for i in group}) == 1
            states = sum(drawn[i][0].lambda_bar.size for i in group)
            assert states <= verify._SCAN_GROUP_STATES or len(group) == 1
        assert any(len(group) > 1 for group in groups)

    def test_perturbed_system_fails_alone(self, monkeypatch):
        # a scan error past the first time block of one system in a shared
        # group must show in that system's row and no other
        target = {}
        real_groups = verify._scan_groups

        def spy_groups(drawn, *args):
            groups = real_groups(drawn, *args)
            shared = next(g for g in groups
                          if len(g) > 1 and drawn[g[0]][1].length > verify._SCAN_TIME_BLOCK)
            target["index"] = shared[1]
            target["ssm"] = drawn[shared[1]][0]
            return groups

        def perturbed_scan(ssm, u):
            out = recur_scan(ssm, u)
            if ssm is target["ssm"]:
                out[verify._SCAN_TIME_BLOCK + 123, 0] += 1e-6 * np.max(np.abs(out))
            return out

        monkeypatch.setattr(verify, "_scan_groups", spy_groups)
        monkeypatch.setattr(verify, "recur_scan", perturbed_scan)
        report = verify._check_scan_equivalence(np.random.default_rng(2), systems=9)
        flagged = [i for i, row in enumerate(report.detail)
                   if row["relative_deviation"] > 1e-10]
        assert flagged == [target["index"]]
        assert not report.passed

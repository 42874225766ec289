"""Brute-force oracles for every analytic claim of the operator family.

Each check recomputes its target from the measure/basis definitions
(quadrature projections, finite differences, general-purpose eigensolvers)
without reusing the construction code other than as the object under test,
and returns an OracleReport.  Failures are reported, never thrown.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import measure as measure_mod
from .operators import (build_A, build_B, check_alpha, check_quadrature_order, check_state_dim,
                        legs_closed_form)
from .quadrature import default_order, gauss_jacobi
from .specfun import JacobiParam, basis_scale, jacobi_eval_all
from .spectral import condition_number, eig_triangular, spectral_init
from .ssm import DiscreteDiagonalSSM, SequenceBatch, recur_scan, zoh_discretize

__all__ = [
    "OracleReport",
    "projection_coefficients",
    "ode_consistency",
    "run_full_suite",
    "random_system",
    "TABLE_ALPHA0",
    "TABLE_ALPHA05",
    "CONDITION_TABLE",
]

_LD = np.longdouble

# reference entries (2 d.p.) for the five-state operator at alpha = 0 and 0.5
TABLE_ALPHA0 = {
    (0, 0): 1.00, (1, 0): 1.73, (1, 1): 2.00, (2, 0): 2.24, (2, 1): 3.87,
    (2, 2): 3.00, (3, 0): 2.65, (3, 1): 4.58, (3, 2): 5.92, (3, 3): 4.00,
    (4, 0): 3.00, (4, 1): 5.20, (4, 2): 6.71, (4, 3): 7.94, (4, 4): 5.00,
}
TABLE_ALPHA05 = {
    (0, 0): 1.00, (1, 0): 2.24, (1, 1): 2.00, (2, 0): 4.00, (2, 1): 4.47,
    (2, 2): 3.00, (3, 0): 5.77, (3, 1): 6.45, (3, 2): 6.49, (3, 3): 4.00,
    (4, 0): 7.54, (4, 1): 8.43, (4, 2): 8.48, (4, 3): 8.50, (4, 4): 5.00,
}
# reference eigenvector-condition grid over (N, alpha)
CONDITION_TABLE = {
    (8, 0.0): 1.2e1, (8, 0.2): 1.4e1, (8, 0.4): 1.8e1,
    (8, 0.6): 2.5e1, (8, 0.8): 4.8e1, (8, 0.9): 1.1e2,
    (16, 0.0): 4.1e1, (16, 0.2): 5.2e1, (16, 0.4): 7.3e1,
    (16, 0.6): 1.2e2, (16, 0.8): 3.1e2, (16, 0.9): 9.8e2,
    (32, 0.0): 1.5e2, (32, 0.2): 2.0e2, (32, 0.4): 3.1e2,
    (32, 0.6): 5.8e2, (32, 0.8): 2.0e3, (32, 0.9): 8.5e3,
    (64, 0.0): 5.8e2, (64, 0.2): 8.2e2, (64, 0.4): 1.4e3,
    (64, 0.6): 2.9e3, (64, 0.8): 1.3e4, (64, 0.9): 7.2e4,
}


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one verification check."""

    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    detail: list = field(default_factory=list)
    seconds: float = 0.0   # wall time of the check, set by run_full_suite

    @staticmethod
    def from_deviation(name: str, max_deviation: float, tolerance: float,
                       detail: list | None = None) -> "OracleReport":
        return OracleReport(name=name, max_deviation=float(max_deviation),
                            tolerance=float(tolerance),
                            passed=bool(max_deviation <= tolerance),
                            detail=detail or [])


def projection_coefficients(u, alpha: float, n: int, t: float, order: int) -> np.ndarray:
    """Projection of the history of u onto the first n basis functions at time t.

    Evaluates x_k(t) = (1-alpha) gamma_k int_0^1 u(t xi) P_k(2 xi - 1)
    (1-xi)^(-alpha) d xi by Gauss-Jacobi quadrature in the dimensionless
    variable; u must be callable on [0, t].
    """
    check_quadrature_order(n, order)
    rule = gauss_jacobi(JacobiParam(-alpha, 0.0), order)
    xi = (1.0 + rule.nodes) / 2.0
    signal = np.asarray(u(t * xi), dtype=float)
    if not np.all(np.isfinite(signal)):
        raise ValueError("signal produced non-finite values at quadrature nodes")
    p = jacobi_eval_all(JacobiParam(-alpha, 0.0), n - 1, rule.nodes)
    gammas = np.array([basis_scale(alpha, k).gamma_n for k in range(n)])
    pref = (1.0 - alpha) * 2.0 ** (alpha - 1.0)
    return pref * gammas * (p @ (rule.weights * signal))


def ode_consistency(alpha: float, n: int, u, t: float, h: float | None = None) -> OracleReport:
    """Finite-difference check of the memory update law.

    Compares the central difference of the projection coefficients with
    -(1/t) A x(t) + (1/t) B u(t) and reports the worst component deviation
    at steps h and h/2 together with their convergence ratio.
    """
    if h is None:
        h = 1e-4 * t
    if not t > 2 * h > 0:
        raise ValueError("requires t > 2h > 0")
    order = max(default_order(alpha, n), 64)
    a = build_A(alpha, n, order)
    b = build_B(alpha, n)
    u_now = float(np.asarray(u(np.array([t]))).reshape(()))
    x_now = projection_coefficients(u, alpha, n, t, order)
    rhs = (-(a @ x_now) + b * u_now) / t
    detail = []
    devs = []
    for step in (h, h / 2.0):
        x_plus = projection_coefficients(u, alpha, n, t + step, order)
        x_minus = projection_coefficients(u, alpha, n, t - step, order)
        fd = (x_plus - x_minus) / (2.0 * step)
        dev = float(np.max(np.abs(fd - rhs)))
        devs.append(dev)
        detail.append({"h": step, "max_deviation": dev})
    ratio = devs[0] / devs[1] if devs[1] > 0 else float("inf")
    detail.append({"convergence_ratio": ratio})
    return OracleReport.from_deviation(
        f"ode-consistency[alpha={alpha:g}]", devs[0], 1e-6, detail)


# --- individual suite checks -------------------------------------------------

def _check_measure_normalization(grid) -> OracleReport:
    detail = []
    for alpha in grid:
        m = measure_mod.FractionalMeasure(alpha, t=1.0)
        dev = abs(measure_mod.total_mass(m, order=32) - 1.0)
        detail.append({"alpha": alpha, "deviation": dev})
    worst = max(row["deviation"] for row in detail)
    return OracleReport.from_deviation("measure-normalization", worst, 1e-10, detail)


def _check_scale_invariance(rng) -> OracleReport:
    detail = []
    signals = [("sin", np.sin), ("poly", lambda s: 0.3 * s ** 3 - s + 0.5)]
    for trial in range(20):
        alpha = float(rng.uniform(0.0, 0.9))
        lam = float(rng.uniform(0.25, 4.0))
        name, u = signals[trial % 2]
        dev = measure_mod.check_scale_invariance(alpha, 8, lam, t=2.5, u=u)
        detail.append({"alpha": alpha, "dilation": lam, "signal": name, "deviation": dev})
    worst = max(row["deviation"] for row in detail)
    return OracleReport.from_deviation("scale-invariance", worst, 1e-8, detail)


def _check_orthonormality(grid, n_max: int = 32) -> OracleReport:
    detail = []
    worst = 0.0
    for alpha in grid:
        rule = gauss_jacobi(JacobiParam(-alpha, 0.0), 2 * (n_max + 1))
        p = jacobi_eval_all(JacobiParam(-alpha, 0.0), n_max, rule.nodes_hi, dtype=_LD)
        w = rule.weights_hi
        gram = (p * w) @ p.T
        cross = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        h = np.array([basis_scale(alpha, k).h_n for k in range(n_max + 1)], dtype=_LD)
        norm_dev = float(np.max(np.abs(np.diag(gram) / h - 1.0)))
        worst = max(worst, cross, norm_dev)
        detail.append({"alpha": alpha, "cross": cross, "norm_rel": norm_dev})
    return OracleReport.from_deviation("basis-orthonormality", worst, 1e-10, detail)


def _check_diagonal_invariance(grid, n: int) -> OracleReport:
    """Galerkin diagonal recomputed by quadrature: must equal n+1.

    The basis image is rebuilt here on purpose rather than taken from
    operators._basis_tables: the oracle must not share code with the
    assembly it checks, or a defect there would cancel out of the check.
    """
    detail = []
    worst = 0.0
    for alpha in grid:
        order = default_order(alpha, n)
        rule = gauss_jacobi(JacobiParam(-alpha, 0.0), order)
        x, w = rule.nodes_hi, rule.weights_hi
        p = jacobi_eval_all(JacobiParam(-alpha, 0.0), n - 1, x, dtype=_LD)
        shifted = (jacobi_eval_all(JacobiParam(1.0 - alpha, 1.0), n - 2, x, dtype=_LD)
                   if n >= 2 else None)
        dev = 0.0
        for k in range(n):
            if k == 0:
                # degree 0 has no derivative term; the value is the norm ratio
                value = float(np.sum(w * p[0] * p[0]) / _LD(basis_scale(alpha, 0).h_n))
            else:
                dp = (_LD(k) + 1 - _LD(alpha)) / 2 * shifted[k - 1]
                image = p[k] + (1 + x) * dp
                ip = np.sum(w * image * p[k])
                value = float(ip / _LD(basis_scale(alpha, k).h_n))
            dev = max(dev, abs(value - (k + 1)))
        worst = max(worst, dev)
        detail.append({"alpha": alpha, "max_deviation": dev})
    return OracleReport.from_deviation("diagonal-invariance", worst, 1e-10, detail)


def _check_legs_recovery(n: int) -> OracleReport:
    a_dev = float(np.max(np.abs(build_A(0.0, n) - legs_closed_form(n))))
    b_dev = float(np.max(np.abs(build_B(0.0, n) - np.sqrt(2.0 * np.arange(n) + 1.0))))
    detail = [{"matrix_deviation": a_dev, "vector_deviation": b_dev}]
    # the vector tolerance is 100x tighter (1e-12); scale it onto the matrix one
    return OracleReport.from_deviation("legs-recovery", max(a_dev, 100.0 * b_dev),
                                       1e-10, detail)


def _check_table(alpha: float, table: dict, name: str) -> OracleReport:
    a = build_A(alpha, 5)
    detail = []
    worst = 0.0
    for (row, col), printed in sorted(table.items()):
        dev = abs(a[row, col] - printed)
        worst = max(worst, dev)
        detail.append({"entry": (row, col), "computed": float(a[row, col]),
                       "printed": printed, "deviation": dev})
    return OracleReport.from_deviation(name, worst, 0.005, detail)


def _check_eigenvalue_invariance(grid, n: int) -> OracleReport:
    detail = []
    for alpha in grid:
        a = build_A(alpha, n)
        eigs = np.sort(np.linalg.eigvals(a).real)
        dev = float(np.max(np.abs(eigs - np.arange(1, n + 1))))
        detail.append({"alpha": alpha, "deviation": dev})
    worst = max(row["deviation"] for row in detail)
    return OracleReport.from_deviation("eigenvalue-invariance", worst, 1e-10, detail)


def _check_condition_growth() -> OracleReport:
    """kappa(V) against the reference grid (10x) plus monotonicity in N and alpha.

    Always evaluates the fixed grid of CONDITION_TABLE (N in {8, 16, 32, 64},
    alpha in {0, 0.2, 0.4, 0.6, 0.8, 0.9}), whatever alpha grid and n_max the
    suite was given.
    """
    sizes = sorted({n for n, _ in CONDITION_TABLE})
    alphas = sorted({a for _, a in CONDITION_TABLE})
    kappa = {}
    detail = []
    worst_ratio = 1.0
    for n in sizes:
        for alpha in alphas:
            _, v, _ = eig_triangular(build_A(alpha, n))
            k = condition_number(v)
            kappa[(n, alpha)] = k
            ref = CONDITION_TABLE[(n, alpha)]
            ratio = max(k / ref, ref / k)
            worst_ratio = max(worst_ratio, ratio)
            detail.append({"n": n, "alpha": alpha, "kappa": k, "reference": ref,
                           "ratio": ratio})
    monotone = all(kappa[(n1, a)] <= kappa[(n2, a)]
                   for a in alphas for n1, n2 in zip(sizes, sizes[1:]))
    monotone &= all(kappa[(n, a1)] <= kappa[(n, a2)]
                    for n in sizes for a1, a2 in zip(alphas, alphas[1:]))
    detail.append({"monotone": monotone})
    deviation = float(worst_ratio) if monotone else float("inf")
    return OracleReport.from_deviation("condition-growth", deviation, 10.0, detail)


def _check_b_closed_form(grid, n: int) -> OracleReport:
    """build_B against gamma_n P_n(1) with the endpoint taken from the recurrence."""
    detail = []
    for alpha in grid:
        b = build_B(alpha, n)
        endpoints = jacobi_eval_all(JacobiParam(-alpha, 0.0), n - 1,
                                    np.ones(1, dtype=_LD), dtype=_LD)[:, 0]
        gammas = np.array([basis_scale(alpha, k).gamma_n for k in range(n)])
        rel = float(np.max(np.abs(b - (gammas * endpoints).astype(float)) / np.abs(b)))
        detail.append({"alpha": alpha, "relative_deviation": rel})
    worst = max(row["relative_deviation"] for row in detail)
    return OracleReport.from_deviation("input-vector-closed-form", worst, 1e-12, detail)


def _check_monotonicity(grid, n_max: int = 16) -> OracleReport:
    grid = sorted(grid)
    mats = {alpha: build_A(alpha, n_max + 1) for alpha in grid}
    violations = 0
    detail = []
    for n in range(1, n_max + 1):
        for k in range(n):
            trace = [mats[alpha][n, k] for alpha in grid]
            ok = all(x < y for x, y in zip(trace, trace[1:]))
            violations += not ok
            if not ok:
                detail.append({"entry": (n, k), "trace": trace})
    gap_ok = True
    if len(grid) >= 2 and grid[0] != grid[-1]:
        lo, hi = mats[grid[0]], mats[grid[-1]]
        for n in range(2, n_max + 1):
            growth = [(hi[n, k] - lo[n, k]) / lo[n, k] for k in range(n)]
            if not all(x > y for x, y in zip(growth, growth[1:])):
                gap_ok = False
                detail.append({"gap_violation_row": n, "growth": growth})
    detail.append({"strictly_increasing": violations == 0, "gap_amplification": gap_ok})
    return OracleReport.from_deviation(
        "offdiag-monotonicity", float(violations + (not gap_ok)), 0.0, detail)


def random_system(rng, n: int) -> DiscreteDiagonalSSM:
    """A stable single-input diagonal system with pole radii drawn from [0.05, 0.995]."""
    radius = rng.uniform(0.05, 0.995, size=n)
    phase = rng.uniform(-np.pi, np.pi, size=n)
    lambda_bar = radius * np.exp(1j * phase)
    b_bar = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    return DiscreteDiagonalSSM(lambda_bar=lambda_bar, b_bar=b_bar, delta=1.0)


# scan-equivalence runs its reference over same-length systems stacked up to
# this many states (the bytes of one 64-state recur_sequential drive and
# trajectory), in time blocks of this many steps
_SCAN_GROUP_STATES = 128
_SCAN_TIME_BLOCK = 4096


def _scan_groups(drawn) -> list[list[int]]:
    """Indices into `drawn` ((system, input) pairs), grouped by input length so
    that no group holds more than _SCAN_GROUP_STATES states unless one system does."""
    groups = []
    states = last_length = 0
    for i in sorted(range(len(drawn)), key=lambda i: drawn[i][1].length):
        n = drawn[i][0].lambda_bar.shape[0]
        length = drawn[i][1].length
        if groups and length == last_length and states + n <= _SCAN_GROUP_STATES:
            groups[-1].append(i)
            states += n
        else:
            groups.append([i])
            states, last_length = n, length
    return groups


def _scan_group_deviations(group) -> list[tuple[float, float]]:
    """(max |recur_scan - reference|, max |reference|) of each (system, input)
    pair in `group`, whose inputs share one length.

    The reference is the plain recurrence x_k = lambda_bar x_{k-1} + b_bar u_k,
    stepped one k at a time over the stacked states of the group, one time
    block at a time.  It is written out here rather than shared with the scan
    under test, and its per-state multiply-add is the one recur_sequential
    makes, so its states are bit-identical to recur_sequential's.
    """
    ssms, inputs = zip(*group)
    scans = [recur_scan(ssm, u) for ssm, u in zip(ssms, inputs)]
    edges = np.cumsum([0] + [ssm.lambda_bar.shape[0] for ssm in ssms])
    columns = [slice(a, b) for a, b in zip(edges, edges[1:])]
    lam = np.concatenate([ssm.lambda_bar for ssm in ssms])
    length = inputs[0].length
    states = np.empty((min(_SCAN_TIME_BLOCK, length), lam.size), dtype=complex)
    step = np.empty(lam.size, dtype=complex)
    prev = np.zeros(lam.size, dtype=complex)
    worst = np.zeros((len(group), 2))
    for start in range(0, length, states.shape[0]):
        block = states[:min(states.shape[0], length - start)]
        for ssm, u, cols in zip(ssms, inputs, columns):
            block[:, cols] = u.values[start:start + len(block)] @ ssm.b_bar.T
        for row in block:
            np.multiply(lam, prev, step)
            np.add(step, row, row)
            prev = row
        prev = prev.copy()   # the next block overwrites this row
        for j, (scan, cols) in enumerate(zip(scans, columns)):
            seq = block[:, cols]
            # np.maximum, unlike max(), carries a NaN through
            np.maximum(worst[j], [np.max(np.abs(scan[start:start + len(block)] - seq)),
                                  np.max(np.abs(seq))], out=worst[j])
    return [(float(dev), float(scale)) for dev, scale in worst]


def _check_scan_equivalence(rng, systems: int = 50) -> OracleReport:
    lengths = [16, 1024, 65536]
    drawn = []
    for trial in range(systems):
        n = int(rng.integers(1, 65))
        length = lengths[trial % 3] if trial < 45 else 65536
        ssm = random_system(rng, n)
        drawn.append((ssm, SequenceBatch(rng.standard_normal((length, 1)))))
    deviations = [0.0] * systems
    for group in _scan_groups(drawn):
        for i, (dev, scale) in zip(group, _scan_group_deviations([drawn[i] for i in group])):
            deviations[i] = dev / max(scale, 1e-300)
    detail = [{"n": ssm.lambda_bar.shape[0], "length": u.length, "relative_deviation": dev}
              for (ssm, u), dev in zip(drawn, deviations)]
    return OracleReport.from_deviation("scan-equivalence", max([0.0, *deviations]),
                                       1e-10, detail)


def _check_zoh_limit(grid) -> OracleReport:
    detail = []
    worst = 0.0
    stable = True
    for alpha in grid:
        init = spectral_init(alpha, 8)
        ssm = zoh_discretize(init, 1e-6)
        rel = float(np.max(np.abs(ssm.b_bar / 1e-6 - init.b_tilde) / np.abs(init.b_tilde)))
        worst = max(worst, rel)
        moduli_ok = all(
            np.all(np.abs(zoh_discretize(init, d).lambda_bar) < 1.0)
            for d in (1e-3, 1e-1, 1.0, 10.0))
        stable &= moduli_ok
        detail.append({"alpha": alpha, "small_step_rel_dev": rel, "stable": moduli_ok})
    deviation = worst if stable else float("inf")
    return OracleReport.from_deviation("zoh-limit", deviation, 1e-4, detail)


def run_full_suite(alpha_grid, n_max: int, seed: int = 0) -> list[OracleReport]:
    """Execute every oracle over the given singularity-index grid.

    An alpha outside [0, ALPHA_MAX] or an n_max outside [1, N_MAX] raises
    ValueError before any check runs.  An empty grid yields an empty report
    list.  Checks never raise on failed claims; inspect the `passed` flags.
    Each report's `seconds` is the wall time of its check.
    """
    grid = [float(a) for a in alpha_grid]
    for alpha in grid:
        check_alpha(alpha)
    check_state_dim(n_max)
    if not grid:
        return []
    rng = np.random.default_rng(seed)
    checks = [
        lambda: _check_measure_normalization(grid),
        lambda: _check_scale_invariance(rng),
        lambda: _check_orthonormality(grid, min(n_max, 32)),
        lambda: _check_diagonal_invariance(grid, n_max),
        lambda: _check_legs_recovery(n_max),
    ]
    if any(abs(a) < 1e-12 for a in grid):
        checks.append(lambda: _check_table(0.0, TABLE_ALPHA0, "table-alpha0"))
    if any(abs(a - 0.5) < 1e-12 for a in grid):
        checks.append(lambda: _check_table(0.5, TABLE_ALPHA05, "table-alpha05"))
    checks += [
        lambda: _check_eigenvalue_invariance(grid, n_max),
        _check_condition_growth,
        lambda: _check_b_closed_form(grid, n_max),
        lambda: _check_monotonicity(grid, min(n_max, 16)),
        lambda: _check_scan_equivalence(rng),
        lambda: _check_zoh_limit(grid),
    ]
    checks += [functools.partial(ode_consistency, alpha, 8, np.sin, t=3.0) for alpha in grid]
    reports = []
    for check in checks:
        start = time.perf_counter()
        report = check()
        reports.append(replace(report, seconds=time.perf_counter() - start))
    return reports

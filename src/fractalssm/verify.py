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
from .operators import build_A, build_B, check_alpha, check_state_dim, legs_closed_form
from .quadrature import gauss_jacobi
from .specfun import JacobiParam, basis_scale, jacobi_eval_all
from .spectral import condition_number, eig_triangular, spectral_init
from .ssm import (DiscreteDiagonalSSM, FilterBankConfig, LayerWeights, SequenceBatch,
                  layer_forward, zoh_discretize)

__all__ = [
    "OracleReport",
    "projection_coefficients",
    "check_scale_invariance",
    "ode_consistency",
    "run_full_suite",
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
    detail: list = field(default_factory=list)
    seconds: float = 0.0   # wall time of the check, set by run_full_suite

    @property
    def passed(self) -> bool:
        """max_deviation <= tolerance, False on a NaN; a Python bool, which json
        serializes and np.bool_ is not."""
        return bool(self.max_deviation <= self.tolerance)


def _projector(alpha: float, n: int, order: int):
    """The map (u, t) -> projection_coefficients(u, alpha, n, t, order).

    The rule, its nodes on [0, 1], the basis table and the scale are built
    once, so the projections of one check share them.
    """
    param = JacobiParam(-alpha, 0.0)
    rule = gauss_jacobi(param, order)
    xi = (1.0 + rule.nodes) / 2.0
    p = jacobi_eval_all(param, n - 1, rule.nodes)
    gammas, _ = basis_scale(alpha, n)
    scale = (1.0 - alpha) * 2.0 ** (alpha - 1.0) * gammas

    def project(u, t: float) -> np.ndarray:
        signal = np.asarray(u(t * xi), dtype=float)
        if not np.all(np.isfinite(signal)):
            raise ValueError("signal produced non-finite values at quadrature nodes")
        return scale * (p @ (rule.weights * signal))

    return project


def projection_coefficients(u, alpha: float, n: int, t: float, order: int) -> np.ndarray:
    """Projection of the history of u onto the first n basis functions at time t.

    Evaluates x_k(t) = (1-alpha) gamma_k int_0^1 u(t xi) P_k(2 xi - 1)
    (1-xi)^(-alpha) d xi by Gauss-Jacobi quadrature in the dimensionless
    variable; u must be callable on [0, t].
    """
    if order < 2 * n:
        raise ValueError(f"quadrature order must be >= 2n = {2 * n}, got {order}")
    return _projector(alpha, n, order)(u, t)


def check_scale_invariance(alpha: float, n: int, dilation: float,
                           t: float = 2.7, u=np.sin) -> float:
    """Max coefficient deviation between a signal at time t and its dilation.

    Projects u over [0, t] and tau -> u(dilation * tau) over [0, t/dilation]
    through the same quadrature oracle and returns the largest absolute
    difference; the two are equal in exact arithmetic.
    """
    if dilation <= 0.0:
        raise ValueError(f"dilation must be positive, got {dilation}")
    if n > 32:
        raise ValueError(f"scale-invariance check supports n <= 32, got {n}")
    project = _projector(alpha, n, max(2 * n, 32))
    lam = float(dilation)
    x_direct = project(u, t)
    x_dilated = project(lambda s: u(lam * s), t / lam)
    return float(np.max(np.abs(x_direct - x_dilated)))


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
    # A is the matrix the models use; the projections take their own, finer rule
    a = build_A(alpha, n)
    b = build_B(alpha, n)
    u_now = float(np.asarray(u(np.array([t]))).reshape(()))
    project = _projector(alpha, n, max(4 * n, 64))
    x_now = project(u, t)
    rhs = (-(a @ x_now) + b * u_now) / t
    detail = []
    devs = []
    for step in (h, h / 2.0):
        x_plus = project(u, t + step)
        x_minus = project(u, t - step)
        fd = (x_plus - x_minus) / (2.0 * step)
        dev = float(np.max(np.abs(fd - rhs)))
        devs.append(dev)
        detail.append({"h": step, "max_deviation": dev})
    ratio = devs[0] / devs[1] if devs[1] > 0 else float("inf")
    detail.append({"convergence_ratio": ratio})
    return OracleReport(f"ode-consistency[alpha={alpha:g}]", devs[0], 1e-6, detail)


# --- individual suite checks -------------------------------------------------

def _check_measure_normalization(grid) -> OracleReport:
    detail = []
    for alpha in grid:
        m = measure_mod.FractionalMeasure(alpha, t=1.0)
        dev = abs(measure_mod.total_mass(m, order=32) - 1.0)
        detail.append({"alpha": alpha, "deviation": dev})
    worst = max(row["deviation"] for row in detail)
    return OracleReport("measure-normalization", worst, 1e-10, detail)


def _check_scale_invariance(rng) -> OracleReport:
    detail = []
    signals = [("sin", np.sin), ("poly", lambda s: 0.3 * s ** 3 - s + 0.5)]
    for trial in range(20):
        alpha = float(rng.uniform(0.0, 0.9))
        lam = float(rng.uniform(0.25, 4.0))
        name, u = signals[trial % 2]
        dev = check_scale_invariance(alpha, 8, lam, t=2.5, u=u)
        detail.append({"alpha": alpha, "dilation": lam, "signal": name, "deviation": dev})
    worst = max(row["deviation"] for row in detail)
    return OracleReport("scale-invariance", worst, 1e-8, detail)


def _check_orthonormality(grid, n_max: int = 32) -> OracleReport:
    detail = []
    worst = 0.0
    for alpha in grid:
        rule = gauss_jacobi(JacobiParam(-alpha, 0.0), 2 * (n_max + 1))
        p = jacobi_eval_all(JacobiParam(-alpha, 0.0), n_max, rule.nodes_hi, dtype=_LD)
        w = rule.weights_hi
        gram = (p * w) @ p.T
        cross = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        h = basis_scale(alpha, n_max + 1)[1].astype(_LD)
        norm_dev = float(np.max(np.abs(np.diag(gram) / h - 1.0)))
        worst = max(worst, cross, norm_dev)
        detail.append({"alpha": alpha, "cross": cross, "norm_rel": norm_dev})
    return OracleReport("basis-orthonormality", worst, 1e-10, detail)


def _check_galerkin_projection(grid, n: int) -> OracleReport:
    """Every entry of build_A on and below the diagonal against its Galerkin
    projection (gamma_m / gamma_k) <L[P_m], P_k>_w / h_k, by quadrature.

    The basis image L[P_m] = P_m + (1+eta) P_m' is built here on purpose,
    from the Jacobi recurrence: `operators` evaluates the closed form, and
    the oracle must not share code with the matrix it checks, or a defect
    there would cancel out of the check.  The deviation is relative, per entry.
    """
    detail = []
    for alpha in grid:
        # 2n nodes integrate the degree <= 2n-2 integrands exactly
        rule = gauss_jacobi(JacobiParam(-alpha, 0.0), 2 * n)
        x, w = rule.nodes_hi, rule.weights_hi
        p = jacobi_eval_all(JacobiParam(-alpha, 0.0), n - 1, x, dtype=_LD)
        image = p.copy()
        if n >= 2:
            # P_m' = (m+1-alpha)/2 P_{m-1}^(1-alpha,1); degree 0 has no derivative term
            shifted = jacobi_eval_all(JacobiParam(1.0 - alpha, 1.0), n - 2, x, dtype=_LD)
            half_slope = (np.arange(2, n + 1, dtype=_LD) - _LD(alpha)) / 2
            image[1:] += (1 + x) * half_slope[:, None] * shifted
        gammas, h = (scale.astype(_LD) for scale in basis_scale(alpha, n))
        gram = (image * w) @ p.T   # gram[m, k] = <L[P_m], P_k>_w
        projection = (np.outer(gammas, 1 / gammas) * gram / h).astype(float)
        a = build_A(alpha, n)
        rows, cols = np.tril_indices(n)
        rel = np.abs(projection[rows, cols] - a[rows, cols]) / np.abs(a[rows, cols])
        # np.argmax, like np.max, stops at a NaN, so a NaN entry is the one reported
        at = int(np.argmax(rel))
        detail.append({"alpha": alpha, "max_relative_deviation": float(rel[at]),
                       "entry": (int(rows[at]), int(cols[at]))})
    worst = float(np.max([row["max_relative_deviation"] for row in detail]))
    return OracleReport("galerkin-projection", worst, 1e-10, detail)


def _check_legs_recovery(n: int) -> OracleReport:
    a_dev = float(np.max(np.abs(build_A(0.0, n) - legs_closed_form(n))))
    b_dev = float(np.max(np.abs(build_B(0.0, n) - np.sqrt(2.0 * np.arange(n) + 1.0))))
    detail = [{"matrix_deviation": a_dev, "vector_deviation": b_dev}]
    # the vector tolerance is 100x tighter (1e-12); scale it onto the matrix one
    return OracleReport("legs-recovery", max(a_dev, 100.0 * b_dev), 1e-10, detail)


def _check_table(alpha: float, table: dict, name: str) -> OracleReport:
    a = build_A(alpha, 5)
    detail = []
    worst = 0.0
    for (row, col), printed in sorted(table.items()):
        dev = abs(a[row, col] - printed)
        worst = max(worst, dev)
        detail.append({"entry": (row, col), "computed": float(a[row, col]),
                       "printed": printed, "deviation": dev})
    return OracleReport(name, float(worst), 0.005, detail)


def _check_eigenvalue_invariance(grid, n: int) -> OracleReport:
    detail = []
    for alpha in grid:
        a = build_A(alpha, n)
        eigs = np.sort(np.linalg.eigvals(a).real)
        dev = float(np.max(np.abs(eigs - np.arange(1, n + 1))))
        detail.append({"alpha": alpha, "deviation": dev})
    worst = max(row["deviation"] for row in detail)
    return OracleReport("eigenvalue-invariance", worst, 1e-10, detail)


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
    return OracleReport("condition-growth", deviation, 10.0, detail)


def _check_b_closed_form(grid, n: int) -> OracleReport:
    """build_B against gamma_n P_n(1) with the endpoint taken from the recurrence."""
    detail = []
    for alpha in grid:
        b = build_B(alpha, n)
        endpoints = jacobi_eval_all(JacobiParam(-alpha, 0.0), n - 1,
                                    np.ones(1, dtype=_LD), dtype=_LD)[:, 0]
        gammas, _ = basis_scale(alpha, n)
        rel = float(np.max(np.abs(b - (gammas * endpoints).astype(float)) / np.abs(b)))
        detail.append({"alpha": alpha, "relative_deviation": rel})
    worst = max(row["relative_deviation"] for row in detail)
    return OracleReport("input-vector-closed-form", worst, 1e-12, detail)


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
    return OracleReport("offdiag-monotonicity", float(violations + (not gap_ok)), 0.0, detail)


def _random_system(rng, n: int) -> DiscreteDiagonalSSM:
    """A stable single-input diagonal system with pole radii drawn from [0.05, 0.995]."""
    radius = rng.uniform(0.05, 0.995, size=n)
    phase = rng.uniform(-np.pi, np.pi, size=n)
    lambda_bar = radius * np.exp(1j * phase)
    b_bar = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    return DiscreteDiagonalSSM(lambda_bar=lambda_bar, b_bar=b_bar, delta=1.0)


_LAYER_CHUNK = 64   # T, the steps per chunk of the layer-equivalence reference


def _layer_reference(ssm: DiscreteDiagonalSSM, u: SequenceBatch,
                     weights: LayerWeights) -> np.ndarray:
    """Output of the one-channel layer (ssm, weights) on u, in the chunked form
    of the recurrence x_k = lambda_bar x_{k-1} + b_bar u_k (the "state space
    duality" form of Mamba-2, arXiv:2405.21060).

    u is padded to whole chunks of T = _LAYER_CHUNK steps.  Within a chunk
    the output from a zero start is the Toeplitz product with the taps
    k_m = Re sum_n c_n b_bar_n lambda_bar_n^m, m < T.  Chunk j ends in the
    state sum_i u_i lambda_bar^(T-1-i) b_bar, and a loop over the chunks
    carries h_j = lambda_bar^T h_{j-1} + (end of chunk j-1) into chunk j,
    where it adds Re(c lambda_bar^(i+1) h_j) at step i.  The output is
    w_out (Re(c x) + d u) g / (1 + exp(-g)) with g = w_gate u.
    """
    t, lam, b, c = _LAYER_CHUNK, ssm.lambda_bar, ssm.b_bar[:, 0], weights.c_tilde[0]
    x = u.values[:, 0]
    steps = np.zeros((-(-x.size // t), t))
    steps.flat[:x.size] = x
    powers = lam ** np.arange(t + 1)[:, None]   # powers[m] = lambda_bar^m
    taps = (powers[:t] @ (c * b)).real
    lag = np.subtract.outer(np.arange(t), np.arange(t))
    y = steps @ np.where(lag >= 0, taps[lag], 0.0).T
    ends = steps @ (powers[t - 1::-1] * b)
    h = np.zeros_like(ends)
    for j in range(1, len(h)):
        h[j] = powers[t] * h[j - 1] + ends[j - 1]
    y += (h @ (powers[1:] * c).T).real
    g = weights.w_gate[0, 0] * x
    return weights.w_out[0, 0] * (y.ravel()[:x.size] + weights.d * x) * g / (1.0 + np.exp(-g))


def _check_layer_equivalence(rng, systems: int = 50) -> OracleReport:
    """layer_forward, on its default convolution path, against _layer_reference.

    Each drawn one-channel layer is compared, in draw order, with a
    reference that shares no code with `ssm`: it uses no `_output_kernel`,
    no FFT and no truncated kernel, so it is exact to the last step, and its
    output map and SiLU are written out, so a defect in the layer cannot
    cancel out.
    """
    lengths = [16, 1024, 65536]
    drawn = []
    for trial in range(systems):
        n = int(rng.integers(1, 65))
        length = lengths[trial % 3] if trial < 45 else 65536
        ssm = _random_system(rng, n)
        drawn.append((ssm, SequenceBatch(rng.standard_normal((length, 1)))))
    # each layer's weights are drawn after all the (system, input) pairs
    for i, (ssm, u) in enumerate(drawn):
        n = ssm.lambda_bar.shape[0]
        c = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
        w_out, w_gate = rng.standard_normal((1, 1)), rng.standard_normal((1, 1))
        drawn[i] = (ssm, u, LayerWeights(c_tilde=c, w_out=w_out, w_gate=w_gate,
                                         d=float(rng.standard_normal())))
    detail = []
    for ssm, u, w in drawn:
        n = ssm.lambda_bar.shape[0]
        layer = layer_forward(FilterBankConfig(channels=1, block_state=n), w, [ssm], u)
        ref = _layer_reference(ssm, u, w)
        # np.max, unlike max(), carries a NaN through
        dev = np.max(np.abs(layer.values[:, 0] - ref)) / max(np.max(np.abs(ref)), 1e-300)
        detail.append({"n": n, "length": u.length, "relative_deviation": float(dev)})
    worst = float(np.max([0.0, *(row["relative_deviation"] for row in detail)]))
    return OracleReport("layer-equivalence", worst, 1e-10, detail)


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
    return OracleReport("zoh-limit", deviation, 1e-4, detail)


def run_full_suite(alpha_grid, n_max: int, seed: int = 0) -> list[OracleReport]:
    """Execute every oracle over the given singularity-index grid.

    An alpha outside [0, ALPHA_MAX] or an n_max outside [1, N_MAX] raises
    ValueError before any check runs.  An empty grid yields an empty report
    list.  Checks never raise on failed claims; inspect the `passed` flags.
    A check that raises, for instance because the code under test does,
    yields a failed report under its name with an infinite deviation, no
    tolerance and the detail row {"error": "<Type>: <message>"}, and the
    suite goes on with the next check.  Each report's `seconds` is the wall
    time of its check.
    """
    grid = [float(a) for a in alpha_grid]
    for alpha in grid:
        check_alpha(alpha)
    check_state_dim(n_max)
    if not grid:
        return []
    rng = np.random.default_rng(seed)
    checks = [
        ("measure-normalization", lambda: _check_measure_normalization(grid)),
        ("scale-invariance", lambda: _check_scale_invariance(rng)),
        ("basis-orthonormality", lambda: _check_orthonormality(grid, min(n_max, 32))),
        ("galerkin-projection", lambda: _check_galerkin_projection(grid, n_max)),
        ("legs-recovery", lambda: _check_legs_recovery(n_max)),
    ]
    if any(abs(a) < 1e-12 for a in grid):
        checks.append(("table-alpha0",
                       lambda: _check_table(0.0, TABLE_ALPHA0, "table-alpha0")))
    if any(abs(a - 0.5) < 1e-12 for a in grid):
        checks.append(("table-alpha05",
                       lambda: _check_table(0.5, TABLE_ALPHA05, "table-alpha05")))
    checks += [
        ("eigenvalue-invariance", lambda: _check_eigenvalue_invariance(grid, n_max)),
        ("condition-growth", _check_condition_growth),
        ("input-vector-closed-form", lambda: _check_b_closed_form(grid, n_max)),
        ("offdiag-monotonicity", lambda: _check_monotonicity(grid, min(n_max, 16))),
        ("layer-equivalence", lambda: _check_layer_equivalence(rng)),
        ("zoh-limit", lambda: _check_zoh_limit(grid)),
    ]
    checks += [(f"ode-consistency[alpha={alpha:g}]",
                functools.partial(ode_consistency, alpha, 8, np.sin, t=3.0))
               for alpha in grid]
    reports = []
    for name, check in checks:
        start = time.perf_counter()
        try:
            report = check()
        except Exception as exc:   # the suite reports every check, even one that crashes
            report = OracleReport(name, float("inf"), float("nan"),
                                  [{"error": f"{type(exc).__name__}: {exc}"}])
        reports.append(replace(report, seconds=time.perf_counter() - start))
    return reports

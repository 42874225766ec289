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
from .specfun import JacobiParam, basis_scale, index_label, jacobi_eval_all
from .spectral import condition_number, eig_triangular, spectral_init
from .ssm import (DiscreteDiagonalSSM, FilterBankConfig, LayerWeights, SequenceBatch,
                  layer_forward, zoh_discretize)

__all__ = [
    "OracleReport",
    "projection_coefficients",
    "check_scale_invariance",
    "ode_consistency",
    "run_full_suite",
    "SIGNALS",
    "TABLE_ALPHA0",
    "TABLE_ALPHA05",
    "CONDITION_TABLE",
]

_LD = np.longdouble

# the oracles' test signals by name: scale-invariance draws sin and poly, and
# `fractal oracle --signal` takes any of them
SIGNALS = {
    "sin": np.sin,
    "poly": lambda s: 0.3 * s ** 3 - s + 0.5,
    "const": lambda s: np.ones_like(np.asarray(s, dtype=float)),
}

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


def _worst(deviations) -> float:
    """The largest deviation of a check's rows.  np.max, unlike max(), carries
    a NaN through wherever it stands, so a NaN row fails its check."""
    return float(np.max(deviations))


def _projector(alpha: float, n: int, order: int):
    """The map (u, t) -> projection_coefficients(u, alpha, n, t, order).

    The one owner of a projection oracle's inputs: alpha must lie in the
    operators' [0, ALPHA_MAX], not only the measure's [0, 1) that basis_scale
    takes, n in [1, N_MAX], and the order must be at least 2n.  The rule,
    its nodes on [0, 1], the basis table and the scale are built once, so
    the projections of one check share them.
    """
    check_alpha(alpha)
    check_state_dim(n)
    if order < 2 * n:
        raise ValueError(f"quadrature order must be >= 2n = {2 * n}, got {order}")
    param = JacobiParam(-alpha, 0.0)
    rule = gauss_jacobi(param, order)
    # the signal is sampled at float64 times; the table and sums stay long double
    xi = ((1 + rule.nodes) / 2).astype(float)
    table = jacobi_eval_all(param, n - 1, rule.nodes) * rule.weights
    gammas, _ = basis_scale(alpha, n)
    scale = (1.0 - alpha) * 2.0 ** (alpha - 1.0) * gammas

    def project(u, t: float) -> np.ndarray:
        signal = np.asarray(u(t * xi), dtype=float)
        if not np.all(np.isfinite(signal)):
            raise ValueError("signal produced non-finite values at quadrature nodes")
        return scale * (table @ signal).astype(float)

    return project


def projection_coefficients(u, alpha: float, n: int, t: float, order: int) -> np.ndarray:
    """Projection of the history of u onto the first n basis functions at time t.

    Evaluates x_k(t) = (1-alpha) gamma_k int_0^1 u(t xi) P_k(2 xi - 1)
    (1-xi)^(-alpha) d xi by Gauss-Jacobi quadrature in the dimensionless
    variable; u must be callable on [0, t].  alpha must lie in [0, ALPHA_MAX]
    and n in [1, N_MAX], as for the operator pair, and order must be >= 2n.
    """
    measure_mod.check_time(t)
    return _projector(alpha, n, order)(u, t)


def check_scale_invariance(alpha: float, n: int, dilation: float,
                           t: float = 2.7, u=np.sin) -> float:
    """Max coefficient deviation between a signal at time t and its dilation.

    Projects u over [0, t] and tau -> u(dilation * tau) over [0, t/dilation]
    through the same quadrature oracle and returns the largest absolute
    difference; the two are equal in exact arithmetic.
    """
    measure_mod.check_time(t)
    if not (np.isfinite(dilation) and dilation > 0.0):
        raise ValueError(f"dilation must be finite and positive, got {dilation}")
    project = _projector(alpha, n, max(2 * n, 32))
    lam = float(dilation)
    x_direct = project(u, t)
    x_dilated = project(lambda s: u(lam * s), t / lam)
    return float(np.max(np.abs(x_direct - x_dilated)))


def ode_consistency(alpha: float, n: int, u, t: float, h: float | None = None) -> OracleReport:
    """Finite-difference check of the memory update law.

    Compares the central difference of the projection coefficients with
    -(1/t) A x(t) + (1/t) B u(t) and reports the worst component deviation
    at steps h and h/2 together with their convergence ratio.  The check is
    judged on the step-h row; a NaN in either row makes it and the ratio NaN.
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
    if np.isnan(devs).any():
        devs[0] = ratio = float("nan")
    detail.append({"convergence_ratio": ratio})
    return OracleReport(f"ode-consistency[alpha={index_label(alpha)}]", devs[0], 1e-6, detail)


# --- individual suite checks -------------------------------------------------

def _check_measure_normalization(grid) -> OracleReport:
    detail = []
    for alpha in grid:
        m = measure_mod.FractionalMeasure(alpha, t=1.0)
        dev = abs(measure_mod.total_mass(m) - 1.0)
        detail.append({"alpha": alpha, "deviation": dev})
    return OracleReport("measure-normalization",
                        _worst([row["deviation"] for row in detail]), 1e-10, detail)


def _check_scale_invariance(rng) -> OracleReport:
    detail = []
    for trial in range(20):
        alpha = float(rng.uniform(0.0, 0.9))
        lam = float(rng.uniform(0.25, 4.0))
        name = ("sin", "poly")[trial % 2]
        dev = check_scale_invariance(alpha, 8, lam, t=2.5, u=SIGNALS[name])
        detail.append({"alpha": alpha, "dilation": lam, "signal": name, "deviation": dev})
    return OracleReport("scale-invariance",
                        _worst([row["deviation"] for row in detail]), 1e-8, detail)


def _check_orthonormality(grid, n_max: int) -> OracleReport:
    detail = []
    for alpha in grid:
        rule = gauss_jacobi(JacobiParam(-alpha, 0.0), 2 * (n_max + 1))
        p = jacobi_eval_all(JacobiParam(-alpha, 0.0), n_max, rule.nodes)
        gram = (p * rule.weights) @ p.T
        cross = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        h = basis_scale(alpha, n_max + 1)[1].astype(_LD)
        norm_dev = float(np.max(np.abs(np.diag(gram) / h - 1.0)))
        detail.append({"alpha": alpha, "cross": cross, "norm_rel": norm_dev})
    worst = _worst([(row["cross"], row["norm_rel"]) for row in detail])
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
        x, w = rule.nodes, rule.weights
        p = jacobi_eval_all(JacobiParam(-alpha, 0.0), n - 1, x)
        image = p.copy()
        if n >= 2:
            # P_m' = (m+1-alpha)/2 P_{m-1}^(1-alpha,1); degree 0 has no derivative term
            shifted = jacobi_eval_all(JacobiParam(1.0 - alpha, 1.0), n - 2, x)
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
    worst = _worst([row["max_relative_deviation"] for row in detail])
    return OracleReport("galerkin-projection", worst, 1e-10, detail)


def _check_legs_recovery(n: int) -> OracleReport:
    a_dev = float(np.max(np.abs(build_A(0.0, n) - legs_closed_form(n))))
    b_dev = float(np.max(np.abs(build_B(0.0, n) - np.sqrt(2.0 * np.arange(n) + 1.0))))
    detail = [{"matrix_deviation": a_dev, "vector_deviation": b_dev}]
    # the vector tolerance is 100x tighter (1e-12); scale it onto the matrix one
    return OracleReport("legs-recovery", _worst([a_dev, 100.0 * b_dev]), 1e-10, detail)


def _check_table(alpha: float, table: dict, name: str) -> OracleReport:
    a = build_A(alpha, 5)
    detail = [{"entry": (row, col), "computed": float(a[row, col]), "printed": printed,
               "deviation": abs(a[row, col] - printed)}
              for (row, col), printed in sorted(table.items())]
    return OracleReport(name, _worst([row["deviation"] for row in detail]), 0.005, detail)


def _check_eigenvalue_invariance(grid, n: int) -> OracleReport:
    detail = []
    for alpha in grid:
        a = build_A(alpha, n)
        eigs = np.sort(np.linalg.eigvals(a).real)
        dev = float(np.max(np.abs(eigs - np.arange(1, n + 1))))
        detail.append({"alpha": alpha, "deviation": dev})
    return OracleReport("eigenvalue-invariance",
                        _worst([row["deviation"] for row in detail]), 1e-10, detail)


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
    for n in sizes:
        for alpha in alphas:
            _, v, _ = eig_triangular(build_A(alpha, n))
            k = condition_number(v)
            kappa[(n, alpha)] = k
            ref = CONDITION_TABLE[(n, alpha)]
            detail.append({"n": n, "alpha": alpha, "kappa": k, "reference": ref,
                           "ratio": max(k / ref, ref / k)})
    worst_ratio = _worst([row["ratio"] for row in detail])
    monotone = all(kappa[(n1, a)] <= kappa[(n2, a)]
                   for a in alphas for n1, n2 in zip(sizes, sizes[1:]))
    monotone &= all(kappa[(n, a1)] <= kappa[(n, a2)]
                    for n in sizes for a1, a2 in zip(alphas, alphas[1:]))
    detail.append({"monotone": monotone})
    deviation = worst_ratio if monotone else float("inf")
    return OracleReport("condition-growth", deviation, 10.0, detail)


def _check_b_closed_form(grid, n: int) -> OracleReport:
    """build_B against gamma_n P_n(1) with the endpoint taken from the recurrence."""
    detail = []
    for alpha in grid:
        b = build_B(alpha, n)
        endpoints = jacobi_eval_all(JacobiParam(-alpha, 0.0), n - 1, np.ones(1))[:, 0]
        gammas, _ = basis_scale(alpha, n)
        rel = float(np.max(np.abs(b - (gammas * endpoints).astype(float)) / np.abs(b)))
        detail.append({"alpha": alpha, "relative_deviation": rel})
    worst = _worst([row["relative_deviation"] for row in detail])
    return OracleReport("input-vector-closed-form", worst, 1e-12, detail)


def _check_monotonicity(grid, n_max: int) -> OracleReport:
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
# (input width, output width, length) of each bank layer-equivalence draws
_BANK_LAYERS = ((1, 2, 1000), (2, 1, 4096), (2, 3, 17), (3, 2, 4096), (3, 3, 1000), (2, 2, 4096))


def _carry_scan(x: np.ndarray, decay: np.ndarray) -> None:
    """Run x[j] = decay x[j-1] + x[j], j = 1 .. len(x)-1, in place along axis 0.

    A doubling scan (Hillis & Steele, "Data parallel algorithms", 1986):
    ceil(log2(len(x))) levels, O(len(x) log len(x)) work.  The level at shift
    s = 1, 2, 4, ... adds decay^s times row j - s to every row j, writing the
    products into one buffer; decay^s is one squaring of the level below, and
    a real or imaginary part of it below finfo.tiny is flushed to zero, so
    the scan runs no subnormal arithmetic.
    """
    power = np.array(decay, dtype=complex)
    product, shift = np.empty_like(x), 1
    while shift < len(x):
        parts = power.view(float)
        parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
        x[shift:] += np.multiply(power, x[:-shift], out=product[shift:])
        power, shift = power * power, 2 * shift


def _layer_reference(ssms: list[DiscreteDiagonalSSM], u: SequenceBatch,
                     weights: LayerWeights) -> np.ndarray:
    """Output (length, out) of the gated layer (ssms, weights) on u, in the
    chunked "state space duality" form (Mamba-2, arXiv:2405.21060) of the
    stacked recurrences x_k = lambda_bar x_{k-1} + b_bar u_k.

    u is padded to chunks of T = _LAYER_CHUNK steps, laid out (chunk, input,
    step).  Within a chunk, output o from a zero start is one Toeplitz product
    with the taps k_m[o, i] = Re sum_n c_on b_ni lambda_bar_n^m, m < T.  The
    state h_j carried into chunk j obeys h_j = lambda_bar^T h_{j-1} + (end of
    chunk j-1), h_0 = 0, which _carry_scan solves in place over the chunk ends
    by doubling, in ceil(log2(chunks)) levels and O(chunks log chunks) work
    rather than a Python step per chunk; its powers lambda_bar^(T 2^k) are
    flushed to zero below finfo.tiny, since a subnormal operand slows every
    product it enters and adds nothing above rounding.  Step s of chunk j adds
    Re(c_o lambda_bar^(s+1) h_j).  The chunk ends and the carried terms are real
    matmuls on the float views of the complex factors, so no real block is cast
    up to complex.  The output is w_out (Re(c x) + d u) * g / (1 + exp(-g)),
    g = w_gate u, a scalar d standing for d I.
    """
    t = _LAYER_CHUNK
    lam = np.concatenate([ssm.lambda_bar for ssm in ssms])
    b = np.concatenate([ssm.b_bar for ssm in ssms])   # (states, in)
    c, x = weights.c_tilde, u.values
    length, width = x.shape
    chunks = -(-length // t)
    padded = np.pad(x, ((0, chunks * t - length), (0, 0)))
    steps = padded.reshape(chunks, t, width).transpose(0, 2, 1).reshape(chunks, width * t)
    powers = lam ** np.arange(t + 1)[:, None]   # powers[m] = lambda_bar^m
    lag = np.subtract.outer(np.arange(t), np.arange(t))
    end_map = (b.T[:, None, :] * powers[t - 1::-1]).reshape(width * t, -1)
    # row j of carried is h_{j+1}: the scanned ends of chunks 0 .. j
    carried = (steps[:-1] @ end_map.view(float)).view(complex)
    _carry_scan(carried, powers[t])
    y = np.empty((chunks, t, c.shape[0]))
    for o, c_o in enumerate(c):
        taps = (powers[:t] @ (c_o[:, None] * b)).real   # (T, in)
        toeplitz = np.where(lag[:, :, None] >= 0, taps[lag], 0.0).transpose(0, 2, 1)
        y[:, :, o] = steps @ toeplitz.reshape(t, width * t).T
        # Re(h c_o lambda^(s+1)) = [Re h, Im h] . [Re, -Im](c_o lambda^(s+1))
        y[1:, :, o] += carried.view(float) @ np.conj(powers[1:] * c_o).view(float).T
    d = weights.d * np.eye(c.shape[0], width) if np.isscalar(weights.d) else weights.d
    # einsum, where a matmul with one or two columns would be several times slower
    y = y.reshape(chunks * t, c.shape[0])[:length] + np.einsum("ki,oi->ko", x, d)
    g = np.einsum("ki,oi->ko", x, weights.w_gate)
    return np.einsum("ki,oi->ko", y, weights.w_out) * g / (1.0 + np.exp(-g))


def _check_layer_equivalence(rng, systems: int = 50) -> OracleReport:
    """layer_forward against _layer_reference on `systems` one-channel layers,
    then on one bank of 2-4 channels of 1-16 states and a matrix D per
    _BANK_LAYERS entry, which stack channels, mix outputs and gate several inputs.

    The reference shares no code with `ssm`: it uses no `_output_kernel`, no
    FFT and no truncated kernel, so it is exact to the last step, and it
    writes out the stacking, output map, feedthrough and gate, so a defect
    in the layer cannot cancel out.
    """
    lengths = [16, 1024, 65536]
    drawn = []
    for trial in range(systems):
        n = int(rng.integers(1, 65))
        length = lengths[trial % 3] if trial < 45 else 65536
        ssm = _random_system(rng, n)
        drawn.append((ssm, SequenceBatch(rng.standard_normal((length, 1)))))
    def normal(*shape):   # complex, standard normal parts
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # each layer's weights are drawn after all the (system, input) pairs
    layers = []
    for ssm, u in drawn:
        c = normal(1, ssm.lambda_bar.size)
        w_out, w_gate = rng.standard_normal((1, 1)), rng.standard_normal((1, 1))
        layers.append(([ssm], u, LayerWeights(c_tilde=c, w_out=w_out, w_gate=w_gate,
                                              d=float(rng.standard_normal()))))
    for width, out_width, length in _BANK_LAYERS:
        channels, block = int(rng.integers(2, 5)), int(rng.integers(1, 17))
        # _random_system draws one input column; each channel gets `width`
        ssms = [replace(_random_system(rng, block), b_bar=normal(block, width))
                for _ in range(channels)]
        weights = LayerWeights(c_tilde=normal(out_width, channels * block),
                               w_out=rng.standard_normal((out_width, out_width)),
                               w_gate=rng.standard_normal((out_width, width)),
                               d=rng.standard_normal((out_width, width)))
        layers.append((ssms, SequenceBatch(rng.standard_normal((length, width))), weights))
    detail = []
    for ssms, u, w in layers:
        config = FilterBankConfig(channels=len(ssms), block_state=ssms[0].lambda_bar.size,
                                  input_width=u.width, output_width=w.w_out.shape[0])
        ref = _layer_reference(ssms, u, w)
        # np.max, unlike max(), carries a NaN through
        dev = np.max(np.abs(layer_forward(config, w, ssms, u).values - ref))
        detail.append({"n": config.block_state, "length": u.length, "channels": len(ssms),
                       "input_width": u.width, "output_width": config.output_width,
                       "relative_deviation": float(dev / max(np.max(np.abs(ref)), 1e-300))})
    worst = _worst([row["relative_deviation"] for row in detail])
    return OracleReport("layer-equivalence", worst, 1e-10, detail)


def _check_zoh_limit(grid) -> OracleReport:
    detail = []
    stable = True
    for alpha in grid:
        init = spectral_init(alpha, 8)
        ssm = zoh_discretize(init, 1e-6)
        rel = float(np.max(np.abs(ssm.b_bar / 1e-6 - init.b_tilde) / np.abs(init.b_tilde)))
        moduli_ok = all(
            np.all(np.abs(zoh_discretize(init, d).lambda_bar) < 1.0)
            for d in (1e-3, 1e-1, 1.0, 10.0))
        stable &= moduli_ok
        detail.append({"alpha": alpha, "small_step_rel_dev": rel, "stable": moduli_ok})
    worst = _worst([row["small_step_rel_dev"] for row in detail])
    return OracleReport("zoh-limit", worst if stable else float("inf"), 1e-4, detail)


def run_full_suite(alpha_grid, n_max: int, seed: int = 0) -> list[OracleReport]:
    """Execute every oracle over the given singularity-index grid.

    An alpha outside [0, ALPHA_MAX], an alpha the grid repeats or an n_max
    outside [1, N_MAX] raises ValueError before any check runs.  An empty
    grid yields an empty report list.  table-alpha0 and table-alpha05 run
    only when 0.0 or 0.5 itself is in the grid.  Checks never raise on
    failed claims; inspect the `passed` flags.
    A check that raises, for instance because the code under test does,
    yields a failed report under its name with an infinite deviation, no
    tolerance and the detail row {"error": "<Type>: <message>"}, and the
    suite goes on with the next check.  Each report's `seconds` is the wall
    time of its check.
    """
    grid = [float(a) for a in alpha_grid]
    for alpha in grid:
        check_alpha(alpha)
    if len(set(grid)) != len(grid):   # equal alphas are not increasing; reports would share names
        raise ValueError(f"alpha grid {grid} repeats an alpha")
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
    checks += [(name, functools.partial(_check_table, alpha, table, name))
               for alpha, table, name in ((0.0, TABLE_ALPHA0, "table-alpha0"),
                                          (0.5, TABLE_ALPHA05, "table-alpha05"))
               if alpha in grid]
    checks += [
        ("eigenvalue-invariance", lambda: _check_eigenvalue_invariance(grid, n_max)),
        ("condition-growth", _check_condition_growth),
        ("input-vector-closed-form", lambda: _check_b_closed_form(grid, n_max)),
        ("offdiag-monotonicity", lambda: _check_monotonicity(grid, min(n_max, 16))),
        ("layer-equivalence", lambda: _check_layer_equivalence(rng)),
        ("zoh-limit", lambda: _check_zoh_limit(grid)),
    ]
    checks += [(f"ode-consistency[alpha={index_label(alpha)}]",
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

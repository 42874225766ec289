"""Construction of the fractional memory operator pair (A(alpha), B(alpha)).

A(alpha) is lower triangular with diagonal n+1 for every admissible alpha;
the off-diagonal entries come from projecting the shift-derivative operator
L[P_n] = P_n + (1+eta) P_n' onto the Jacobi basis under the singular weight
(1-eta)^(-alpha).  The singular component of the full operator cancels
against the integration-by-parts boundary term, so only this regular part
contributes to the matrix; the boundary term itself yields B(alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import default_order, gauss_jacobi
from .specfun import JacobiParam, basis_scale, generalized_binomial, jacobi_eval_all

__all__ = [
    "HippoOperators",
    "ALPHA_MAX",
    "N_MAX",
    "check_alpha",
    "build_B",
    "build_A",
    "build_operators",
    "legs_closed_form",
]

_LD = np.longdouble

# verified stability range of the quadrature construction
ALPHA_MAX = 0.95
N_MAX = 256


@dataclass(frozen=True, eq=False)
class HippoOperators:
    """State matrix and input vector of the fractional memory update."""

    alpha: float
    n: int
    a: np.ndarray
    b: np.ndarray
    quadrature_order: int


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha lies in the admissible range [0, ALPHA_MAX]."""
    if not (0.0 <= alpha <= ALPHA_MAX):
        raise ValueError(f"singularity index must lie in [0, {ALPHA_MAX}], got {alpha}")


def build_B(alpha: float, n: int) -> np.ndarray:
    """Input projection vector B_n = gamma_n * C(n - alpha, n)."""
    check_alpha(alpha)
    if n < 1:
        raise ValueError(f"state dimension must be >= 1, got {n}")
    return np.array([basis_scale(alpha, k).gamma_n * generalized_binomial(k - alpha, k)
                     for k in range(n)])


def _basis_tables(alpha: float, x: np.ndarray, n_max: int):
    """P_0..P_{n_max} and the operator image P + (1+eta) P' at the nodes x.

    Evaluated in extended precision on the refined nodes; the derivative
    uses the parameter-shift identity.
    """
    p = jacobi_eval_all(JacobiParam(-alpha, 0.0), n_max, x, dtype=_LD)
    img = p.copy()
    if n_max >= 1:
        shifted = jacobi_eval_all(JacobiParam(1.0 - alpha, 1.0), n_max - 1, x, dtype=_LD)
        one_plus = 1 + x
        for n in range(1, n_max + 1):
            dp = (_LD(n) + 1 - _LD(alpha)) / 2 * shifted[n - 1]
            img[n] = p[n] + one_plus * dp
    return p, img


def build_A(alpha: float, n: int, order: int | None = None) -> np.ndarray:
    """State matrix A(alpha) of dimension n, via Gauss-Jacobi quadrature.

    Entries below the diagonal are Galerkin projections
    (gamma_n / gamma_k) <L[P_n], P_k>_w / h_k; diagonal entries are
    assigned their exact value n+1; entries above the diagonal are
    structurally zero and never computed.
    """
    check_alpha(alpha)
    if n < 1 or n > N_MAX:
        raise ValueError(f"state dimension must lie in [1, {N_MAX}], got {n}")
    if order is None:
        order = default_order(alpha, n)
    if order < 2 * n:
        raise ValueError(f"quadrature order must be >= 2n = {2 * n}, got {order}")

    rule = gauss_jacobi(JacobiParam(-alpha, 0.0), order)
    p, img = _basis_tables(alpha, rule.nodes_hi, n - 1)
    gammas = np.array([basis_scale(alpha, k).gamma_n for k in range(n)], dtype=_LD)
    hs = np.array([basis_scale(alpha, k).h_n for k in range(n)], dtype=_LD)

    a = np.zeros((n, n))
    for row in range(n):
        a[row, row] = row + 1
        if row == 0:
            continue
        weighted = rule.weights_hi * img[row]
        ips = p[:row] @ weighted
        a[row, :row] = (gammas[row] / gammas[:row] * ips / hs[:row]).astype(float)
    if not np.all(np.isfinite(a)):
        raise ArithmeticError(f"non-finite entry in A({alpha}) at n={n}")
    return a


def build_operators(alpha: float, n: int, order: int | None = None) -> HippoOperators:
    """Construct the (A, B) pair with a shared quadrature order."""
    if order is None:
        order = default_order(alpha, n)
    a = build_A(alpha, n, order)
    b = build_B(alpha, n)
    return HippoOperators(alpha=alpha, n=n, a=a, b=b, quadrature_order=order)


def legs_closed_form(n: int) -> np.ndarray:
    """The uniform-measure (alpha = 0) state matrix: sqrt((2n+1)(2k+1)) below n+1."""
    if n < 1:
        raise ValueError(f"state dimension must be >= 1, got {n}")
    a = np.zeros((n, n))
    for row in range(n):
        a[row, row] = row + 1
        for col in range(row):
            a[row, col] = np.sqrt((2 * row + 1) * (2 * col + 1))
    return a


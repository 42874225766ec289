"""Construction of the fractional memory operator pair (A(alpha), B(alpha)).

The pair is defined by projection: the shift-derivative operator
L[P_n] = P_n + (1+eta) P_n' is projected onto the Jacobi basis P_k^(-alpha,0)
under the singular weight (1-eta)^(-alpha).  The singular component of the
full operator cancels against the integration-by-parts boundary term, so
only this regular part contributes to the matrix; the boundary term itself
yields B(alpha).  L[P_n] has coefficient n+1 on P_n and
(2k+1-alpha) P_k(1) / P_n(1) on each P_k with k < n (see the README), so

    A(alpha) = diag(1, .., N) + (1-alpha) tril(u B^T, -1),
    u_k = gamma_k / P_k(1),   B_k = gamma_k P_k(1),

with P_k(1) = prod_{m<=k} (m - alpha) / m.  Both are evaluated in long
double and rounded once to float64; the quadrature that computes the
projection itself lives in `verify`, as the independent oracle of this form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HippoOperators",
    "ALPHA_MAX",
    "N_MAX",
    "check_alpha",
    "check_state_dim",
    "build_B",
    "build_A",
    "build_operators",
    "legs_closed_form",
]

_LD = np.longdouble

# admissible range of the pair, the filter bank, verify and the CLI
ALPHA_MAX = 0.95
N_MAX = 256

# rows per block of build_A's long-double coupling: 16 x N_MAX entries, 64 kB;
# the mask picks the part of a diagonal block above the diagonal
_ROW_BLOCK = 16
_BLOCK_UPPER = ~np.tri(_ROW_BLOCK, dtype=bool)
_BLOCK_UPPER.setflags(write=False)


@dataclass(frozen=True, eq=False)
class HippoOperators:
    """State matrix and input vector of the fractional memory update."""

    alpha: float
    a: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha lies in the admissible range [0, ALPHA_MAX]."""
    if not (0.0 <= alpha <= ALPHA_MAX):
        raise ValueError(f"singularity index must lie in [0, {ALPHA_MAX}], got {alpha}")


def check_state_dim(n: int) -> None:
    """Raise ValueError unless the state dimension n lies in [1, N_MAX]."""
    if not (1 <= n <= N_MAX):
        raise ValueError(f"state dimension must lie in [1, {N_MAX}], got {n}")


def _closed_form(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma_k and P_k(1) = prod_{m<=k} (m - alpha) / m, k < n, in long double."""
    ld_alpha = _LD(alpha)
    m = np.arange(1, n, dtype=_LD)
    endpoints = np.concatenate(([_LD(1)], np.cumprod((m - ld_alpha) / m)))
    # specfun.basis_scale computes gamma_k too, on purpose: verify's
    # galerkin-projection scales by that one, and stays independent of build_A
    gammas = np.sqrt((2 * np.arange(n, dtype=_LD) + 1 - ld_alpha) / (1 - ld_alpha))
    return gammas, endpoints


def build_B(alpha: float, n: int) -> np.ndarray:
    """Input projection vector B_k = gamma_k P_k(1), rounded once to float64."""
    check_alpha(alpha)
    check_state_dim(n)
    gammas, endpoints = _closed_form(alpha, n)
    return (gammas * endpoints).astype(float)


def build_A(alpha: float, n: int) -> np.ndarray:
    """State matrix A(alpha) of dimension n, from its closed form.

    A = diag(1..n) + (1-alpha) tril(u B^T, -1) with u_k = gamma_k / P_k(1):
    entries below the diagonal are (1-alpha) gamma_n gamma_k P_k(1) / P_n(1),
    evaluated in long double and rounded once; diagonal entries are
    assigned their exact value n+1; entries above the diagonal are zero.
    No entry depends on n, so A(alpha, m) is the leading block of A(alpha, n).

    The lower triangle is filled in row blocks of _ROW_BLOCK rows, each over
    the columns up to its last row, so no n x n long-double array is made
    and nothing above the diagonal block is computed.

    Every entry is finite, so none is checked: for alpha in [0, ALPHA_MAX]
    and n <= N_MAX, P_k(1) > 2.6e-4 and gamma_k <= 101, and max|A| is 1.9e4
    (at alpha = 0.95, n = 256).
    """
    check_alpha(alpha)
    check_state_dim(n)
    gammas, endpoints = _closed_form(alpha, n)
    u = gammas / endpoints
    b = gammas * endpoints
    weight = 1 - _LD(alpha)
    a = np.zeros((n, n))
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        # (1-alpha) (u_i B_j) in long double, rounded once as it is written
        np.multiply(weight, u[start:stop, None] * b[:stop], out=a[start:stop, :stop])
        size = stop - start
        a[start:stop, start:stop][_BLOCK_UPPER[:size, :size]] = 0.0
    np.fill_diagonal(a, np.arange(1.0, n + 1))
    return a


def build_operators(alpha: float, n: int) -> HippoOperators:
    """Construct the (A, B) pair."""
    return HippoOperators(alpha=alpha, a=build_A(alpha, n), b=build_B(alpha, n))


def legs_closed_form(n: int) -> np.ndarray:
    """The uniform-measure (alpha = 0) state matrix: sqrt((2n+1)(2k+1)) below n+1."""
    check_state_dim(n)
    odd = 2 * np.arange(n) + 1   # integer products, exact, then one rounding in sqrt
    return np.tril(np.sqrt(np.outer(odd, odd)), -1) + np.diag(np.arange(1.0, n + 1))


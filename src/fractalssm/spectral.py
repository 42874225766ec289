"""Triangular eigendecomposition and the diagonal spectral initialization.

A(alpha) is lower triangular with distinct integer diagonal, so its
eigenvalues are read off exactly and eigenvectors follow from forward
substitution.  The initialization keeps the exact decay rates -(n+1),
augments them with an imaginary ramp, and pushes the closed-form input
vector through the eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import build_A, build_B

__all__ = ["SpectralInit", "eig_triangular", "condition_number", "spectral_init"]

_DISTINCT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralInit:
    """Diagonalized system data: eigenvalues, transformed input V^-1 B, kappa(V)."""

    eigenvalues: np.ndarray   # complex, Re = -(n+1)
    b_tilde: np.ndarray       # complex, shape (n, input_width)
    cond_v: float             # one-norm condition number of the eigenbasis V


def _lower_triangular(m) -> np.ndarray:
    """m as float64; ValueError unless it is square, finite and lower triangular."""
    m = np.asarray(m, dtype=float)
    if m.shape != (len(m), len(m)):
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    if m.any(where=~np.tri(len(m), dtype=bool)):
        raise ValueError("matrix is not lower triangular")
    return m


def _unit_lower_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse x of the unit-lower-triangular W = I - tril(c, -1) by forward
    substitution, one product a row in place: x[i, :i] = c[i, :i] @ x[:i, :i]."""
    x = np.eye(len(c))
    for i in range(1, len(c)):
        np.matmul(c[i, :i], x[:i, :i], out=x[i, :i])
    return x


def eig_triangular(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact eigendecomposition of a lower-triangular matrix.

    Eigenvalues are the diagonal entries.  Eigenvector k has a unit pivot at
    row k and follows by forward substitution, row i of every eigenvector at
    once: v[i, :i] = -(a[i, :i] @ v[:i, :i]) / (a[i, i] - diag[:i]).  The
    loop carries U = -V in place, two calls a row and no negation, and
    _unit_lower_inverse(U) is V^-1.  U is negated once at the end, and the
    columns of V are rescaled to unit Euclidean norm (the rows of V^-1
    consistently).  Negating an operand negates a product or a quotient
    exactly, so every value equals the row formula's; only the sign of a
    zero can differ (a diagonal input gets +0.0 below its diagonal where the
    row formula gives -0.0), which np.array_equal does not see.  A matrix
    that is not finite or lower triangular, or whose diagonal entries are
    not pairwise distinct, raises ValueError.
    """
    a = _lower_triangular(a)
    n = a.shape[0]
    diag = a.diagonal().copy()
    # the closest pair of diagonal entries is a neighbouring pair once sorted
    if n > 1 and np.diff(np.sort(diag)).min() < _DISTINCT_TOL:
        raise ValueError("diagonal entries coincide; eigendecomposition is not unique")

    gap = diag - diag[:, None]   # gap[i, k] = diag[k] - diag[i]
    u = np.diag(np.full(n, -1.0))
    for i in range(1, n):
        row = u[i, :i]
        np.matmul(a[i, :i], u[:i, :i], out=row)
        np.divide(row, gap[i, :i], out=row)
    v_inv = _unit_lower_inverse(u)

    scale = np.sqrt(np.multiply(u, u, out=gap).sum(axis=0))
    v = np.subtract(0.0, u, out=u)   # 0 - u, not -u: the zeros above the diagonal stay +0.0
    v /= scale
    v_inv *= scale[:, None]
    return diag, v, v_inv


def condition_number(m: np.ndarray) -> float:
    """One-norm condition number ||m||_1 ||m^-1||_1 of a lower-triangular matrix.

    m = D W, D its diagonal and W unit lower triangular, so W^-1 is
    _unit_lower_inverse(-m / diag[:, None]), and the column sums of
    |m^-1| = |W^-1 D^-1|, the largest of which is ||m^-1||_1, are those of
    |W^-1| over |diag|.  kappa_1 brackets the two-norm condition number,
    kappa_2 / N <= kappa_1 <= N kappa_2, with equality for a diagonal matrix.

    For the unit-column eigenbasis V of A(alpha) from eig_triangular this
    lies within 2e-15 relative of kappa_1 of a 100-digit eigenbasis at
    N = 8, 6e-14 at N = 16, 4e-10 at N = 32 and 3e-3 at N = 64.  From
    N = 96 the float64 V is itself far worse conditioned than the exact one
    (kappa_1 of 3e76 against 1.3e72 at N = 96, alpha = 0; 4e274 against
    2e196 at N = 256, alpha = 0.9), and this value lies within a factor of
    0.9 to 17 of the exact kappa_1 of that float64 V (N in {96, 128, 192,
    256} x alpha in {0, 0.3, 0.5, 0.9, 0.95}, 400-digit arithmetic).  A
    matrix that is not square, not finite or not lower triangular, or has a
    zero on its diagonal, raises ValueError.
    """
    m = _lower_triangular(m)
    diag = m.diagonal()
    if not diag.all():
        raise ValueError("matrix is singular")
    c = m / -diag[:, None]
    x = _unit_lower_inverse(c)
    norm = np.abs(m, out=c).sum(axis=0).max()
    norm_inv = (np.abs(x, out=x).sum(axis=0) / np.abs(diag)).max()
    return float(norm * norm_inv)


def spectral_init(alpha: float, n: int, input_width: int = 1) -> SpectralInit:
    """Build the diagonal initialization for one channel.

    The imaginary parts are the linear ramp pi * n.  For input_width
    U > 1 the transformed input vector is replicated across columns with a
    1/sqrt(U) scale, preserving total input energy.
    """
    if input_width < 1:
        raise ValueError(f"input width must be >= 1, got {input_width}")
    a = build_A(alpha, n)
    b = build_B(alpha, n)
    diag, v, v_inv = eig_triangular(a)
    eigenvalues = -diag + 1j * (np.pi * np.arange(n))
    phys = v_inv @ b
    b_tilde = np.repeat(phys[:, None], input_width, axis=1).astype(complex)
    b_tilde /= np.sqrt(input_width)
    return SpectralInit(eigenvalues=eigenvalues, b_tilde=b_tilde, cond_v=condition_number(v))

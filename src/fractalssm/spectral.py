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
    """Diagonalized system data: eigenvalues, eigenbasis, transformed input."""

    alpha: float
    n: int
    eigenvalues: np.ndarray   # complex, Re = -(n+1)
    v: np.ndarray             # real eigenvector matrix, unit-norm columns
    v_inv: np.ndarray
    b_tilde: np.ndarray       # complex, shape (n, input_width)
    cond_v: float


def eig_triangular(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact eigendecomposition of a lower-triangular matrix.

    Eigenvalues are the diagonal entries.  Eigenvector k has a unit pivot
    at row k and follows by forward substitution; one vectorized step per
    row i fills row i of every eigenvector at once,
    v[i, :i] = -(a[i, :i] @ v[:i, :i]) / (a[i, i] - diag[:i]), and the
    inverse of the unit-lower-triangular V is built row by row the same
    way.  Columns are then rescaled to unit Euclidean norm (and the inverse
    consistently).  Requires the diagonal entries to be pairwise distinct.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    diag = np.diag(a).copy()
    if np.min(np.abs(np.subtract.outer(diag, diag) + np.eye(n))) < _DISTINCT_TOL:
        raise ValueError("diagonal entries coincide; eigendecomposition is not unique")

    v = np.eye(n)
    v_inv = np.eye(n)
    for i in range(1, n):
        v[i, :i] = -(a[i, :i] @ v[:i, :i]) / (a[i, i] - diag[:i])
        v_inv[i, :i] = -(v[i, :i] @ v_inv[:i, :i])

    scale = np.linalg.norm(v, axis=0)
    v = v / scale
    v_inv = v_inv * scale[:, None]
    return diag, v, v_inv


def condition_number(v: np.ndarray) -> float:
    """Two-norm condition number sigma_max / sigma_min."""
    s = np.linalg.svd(np.asarray(v, dtype=float), compute_uv=False)
    if s[-1] == 0.0 or not np.isfinite(s[-1]):
        raise ValueError("matrix is singular")
    return float(s[0] / s[-1])


def spectral_init(alpha: float, n: int, input_width: int = 1,
                  order: int | None = None) -> SpectralInit:
    """Build the diagonal initialization for one channel.

    The imaginary parts are the linear ramp pi * n.  For input_width
    U > 1 the transformed input vector is replicated across columns with a
    1/sqrt(U) scale, preserving total input energy.
    """
    if input_width < 1:
        raise ValueError(f"input width must be >= 1, got {input_width}")
    a = build_A(alpha, n, order)
    b = build_B(alpha, n)
    diag, v, v_inv = eig_triangular(a)
    eigenvalues = -diag + 1j * (np.pi * np.arange(n))
    phys = v_inv @ b
    b_tilde = np.repeat(phys[:, None], input_width, axis=1).astype(complex)
    b_tilde /= np.sqrt(input_width)
    return SpectralInit(alpha=alpha, n=n, eigenvalues=eigenvalues, v=v, v_inv=v_inv,
                        b_tilde=b_tilde, cond_v=condition_number(v))

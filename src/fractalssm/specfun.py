"""Special functions and Jacobi polynomial machinery.

Everything here is scalar/vector plumbing for the weight family
w(y) = (1-y)^a (1+y)^b on [-1, 1]; the rest of the package uses it with
(a, b) = (-alpha, 0) for a singularity index alpha.  The measure takes
alpha in [0, 1); the operator pair, filter bank, verify and the CLI take
alpha in [0, 0.95] (operators.ALPHA_MAX).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiParam",
    "jacobi_eval_all",
    "basis_scale",
]

# evaluation tolerance for the closed interval [-1, 1]
_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class JacobiParam:
    """Exponent pair of the Jacobi weight (1-y)^a (1+y)^b."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        if not (self.a > -1.0 and self.b > -1.0):
            raise ValueError(
                f"Jacobi exponents must satisfy a > -1 and b > -1, got ({self.a}, {self.b})"
            )


def _check_domain(y: np.ndarray) -> None:
    if np.any(np.abs(y) > 1.0 + _DOMAIN_SLACK):
        raise ValueError("Jacobi evaluation point outside [-1, 1]")


def jacobi_eval_all(p: JacobiParam, n_max: int, y, dtype=np.float64) -> np.ndarray:
    """Evaluate P_0^(a,b) .. P_{n_max}^(a,b) at y via the three-term recurrence.

    y may be a scalar or 1-d array; the result has shape (n_max+1,) or
    (n_max+1, len(y)).  dtype selects the working precision (the operator
    construction accumulates in extended precision).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    scalar = np.isscalar(y) or np.ndim(y) == 0
    y = np.atleast_1d(np.asarray(y, dtype=dtype))
    _check_domain(y)
    a = dtype(p.a)
    b = dtype(p.b)
    out = np.zeros((n_max + 1, y.size), dtype=dtype)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = (a + b + 2) * y / 2 + (a - b) / 2
    for n in range(2, n_max + 1):
        nn = dtype(n)
        c1 = 2 * nn * (nn + a + b) * (2 * nn + a + b - 2)
        c2 = (2 * nn + a + b - 1) * (2 * nn + a + b) * (2 * nn + a + b - 2)
        c3 = (2 * nn + a + b - 1) * (a * a - b * b)
        c4 = 2 * (nn + a - 1) * (nn + b - 1) * (2 * nn + a + b)
        out[n] = ((c2 * y + c3) * out[n - 1] - c4 * out[n - 2]) / c1
    return out[:, 0] if scalar else out


def basis_scale(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalization constants (gamma, h) of the fractional basis, degrees 0..n-1.

    gamma_k = sqrt((2k+1-alpha) / (1-alpha)) rescales P_k^(-alpha,0) to unit
    norm under the projection measure; h_k = 2^(1-alpha) / (2k+1-alpha) is
    the plain Jacobi norm of P_k under (1-y)^(-alpha).  Both are float64
    arrays of length n (empty at n = 0).  The closed forms are exact on all
    of [0, 1), so this takes the measure's range.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"singularity index must lie in [0, 1), got {alpha}")
    if n < 0:
        raise ValueError(f"number of degrees must be >= 0, got {n}")
    k = np.arange(n)
    return np.sqrt((2 * k + 1 - alpha) / (1 - alpha)), 2.0 ** (1 - alpha) / (2 * k + 1 - alpha)

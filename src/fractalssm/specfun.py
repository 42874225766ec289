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
    "check_index",
    "index_label",
]

_LD = np.longdouble
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


def jacobi_eval_all(p: JacobiParam, n_max: int, y) -> np.ndarray:
    """Evaluate P_0^(a,b) .. P_{n_max}^(a,b) at y via the three-term recurrence.

    y is a 1-d array; the result has shape (n_max+1, len(y)).  The recurrence
    runs in long double, the precision of the quadrature rules it is paired
    with in the oracles of `verify`, and the result is long double.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    y = np.asarray(y, dtype=_LD)
    if y.ndim != 1:
        raise ValueError(f"evaluation points must form a 1-d array, got shape {y.shape}")
    if not np.all(np.abs(y) <= 1.0 + _DOMAIN_SLACK):   # a NaN compares False: it fails
        raise ValueError("Jacobi evaluation point outside [-1, 1] or not a number")
    a = _LD(p.a)
    b = _LD(p.b)
    out = np.zeros((n_max + 1, y.size), dtype=_LD)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = (a + b + 2) * y / 2 + (a - b) / 2
    for n in range(2, n_max + 1):
        nn = _LD(n)
        c1 = 2 * nn * (nn + a + b) * (2 * nn + a + b - 2)
        c2 = (2 * nn + a + b - 1) * (2 * nn + a + b) * (2 * nn + a + b - 2)
        c3 = (2 * nn + a + b - 1) * (a * a - b * b)
        c4 = 2 * (nn + a - 1) * (nn + b - 1) * (2 * nn + a + b)
        out[n] = ((c2 * y + c3) * out[n - 1] - c4 * out[n - 2]) / c1
    return out


def check_index(alpha: float) -> None:
    """Raise ValueError unless the singularity index alpha lies in [0, 1), the
    measure's range; a NaN fails the comparison."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"singularity index must lie in [0, 1), got {alpha}")


def index_label(alpha: float) -> str:
    """alpha as a label for report names and CSV headers: the shortest decimal
    that reads back as the same float64 ("0", "0.5", "0.1000001"), so
    distinct alphas get distinct labels.  -0.0 reads "0", as -0.0 == 0.0."""
    return np.format_float_positional(alpha + 0.0, trim="-")


def basis_scale(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalization constants (gamma, h) of the fractional basis, degrees 0..n-1.

    gamma_k = sqrt((2k+1-alpha) / (1-alpha)) rescales P_k^(-alpha,0) to unit
    norm under the projection measure; h_k = 2^(1-alpha) / (2k+1-alpha) is
    the plain Jacobi norm of P_k under (1-y)^(-alpha).  Both are float64
    arrays of length n (empty at n = 0).  The closed forms are exact on all
    of [0, 1), so this takes the measure's range.
    """
    check_index(alpha)
    if n < 0:
        raise ValueError(f"number of degrees must be >= 0, got {n}")
    k = np.arange(n)
    # operators._closed_form computes gamma_k too, on purpose: verify's
    # galerkin-projection scales by this one, and stays independent of build_A
    return np.sqrt((2 * k + 1 - alpha) / (1 - alpha)), 2.0 ** (1 - alpha) / (2 * k + 1 - alpha)

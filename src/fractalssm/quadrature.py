"""Gauss-Jacobi quadrature via Golub-Welsch with extended-precision refinement.

Rules are built for the weight (1-x)^a (1+x)^b on [-1, 1].  The eigenvalues
of the symmetric tridiagonal Jacobi matrix (Golub & Welsch, Math. Comp.
1969), from numpy's dense symmetric solver, seed the nodes in double
precision; three Newton sweeps on the orthonormal recurrence in 80-bit
extended precision then polish the nodes, and one more pass rebuilds the
weights from the Christoffel formula.  Each pass runs the three-term
recurrence carrying only its last two rows, so it holds O(order) memory.  A
Newton step acts on each node alone and always rounds the same way, so a
node that one sweep leaves unchanged would come out of every later sweep
unchanged too: each sweep runs only on the nodes the previous one moved,
and the nodes are the same as if every sweep ran on all of them.  The rule
keeps its nodes and weights in that extended precision, so that the oracles
of `verify` reach their 1e-10 tolerances; there is no float64 copy.  The
module needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import JacobiParam

__all__ = ["QuadratureRule", "gauss_jacobi"]

_LD = np.longdouble
_NEWTON_SWEEPS = 3


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights, long double, for integrating f against the Jacobi weight."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _weight_mass(param: JacobiParam) -> float:
    """Total mass of the weight: 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2)."""
    a, b = param.a, param.b
    return math.exp((a + b + 1) * math.log(2.0) + math.lgamma(a + 1.0)
                    + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))


def _recurrence_coeffs(param: JacobiParam, m: int):
    """Diagonal d_0..d_{m-1} and off-diagonal sqrt(beta)_1..sqrt(beta)_m."""
    a = _LD(param.a)
    b = _LD(param.b)
    ab = a + b
    d = np.zeros(m, dtype=_LD)
    d[0] = (b - a) / (ab + 2)
    j = np.arange(1, m, dtype=_LD)
    d[1:] = (b * b - a * a) / ((2 * j + ab) * (2 * j + ab + 2))
    beta = np.empty(m, dtype=_LD)
    # beta_1 with the common factor 1 + a + b cancelled: the general form is
    # 0/0 at a + b = -1 and loses digits near it
    beta[0] = 4 * (1 + a) * (1 + b) / ((2 + ab) ** 2 * (3 + ab))
    i = np.arange(2, m + 1, dtype=_LD)
    beta[1:] = (4 * i * (i + a) * (i + b) * (i + ab)
                / ((2 * i + ab) ** 2 * ((2 * i + ab) ** 2 - 1)))
    return d, np.sqrt(beta)


def _seed_nodes(d, e):
    """Eigenvalues, ascending, of the Jacobi matrix with diagonal d and
    off-diagonal e[:d.size-1], in double precision."""
    jacobi = np.diag(d.astype(float))
    off = e[:d.size - 1].astype(float)
    np.fill_diagonal(jacobi[1:], off)
    np.fill_diagonal(jacobi[:, 1:], off)
    return np.linalg.eigvalsh(jacobi)


def _newton_step(d, e, p0, m, x):
    """x - p_m(x) / p_m'(x) for the orthonormal polynomials with p_0 = p0.

    The recurrence carries only p_{j-1}, p_j and their derivatives, so a
    step holds O(x.size) memory.
    """
    p_prev = np.full_like(x, p0)
    p = (x - d[0]) * p_prev / e[0]
    dp_prev = np.zeros_like(x)
    dp = p_prev / e[0]
    for j in range(1, m):
        t = x - d[j]
        p_prev, p, dp_prev, dp = (p, (t * p - e[j - 1] * p_prev) / e[j],
                                  dp, (t * dp + p - e[j - 1] * dp_prev) / e[j])
    return x - p / dp


def _christoffel_weights(d, e, p0, m, x):
    """Christoffel weights 1 / sum_{j<m} p_j(x)^2, accumulated row by row."""
    p_prev = np.full_like(x, p0)
    total = p_prev ** 2
    if m == 1:
        return 1.0 / total
    p = (x - d[0]) * p_prev / e[0]
    total += p ** 2
    for j in range(1, m - 1):
        p_prev, p = p, ((x - d[j]) * p - e[j - 1] * p_prev) / e[j]
        total += p ** 2
    return 1.0 / total


def gauss_jacobi(param: JacobiParam, order: int) -> QuadratureRule:
    """Build an order-point Gauss-Jacobi rule for the weight of `param`.

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    d, e = _recurrence_coeffs(param, order)
    try:
        seed = _seed_nodes(d, e)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ArithmeticError(f"tridiagonal eigen-solve failed at order {order}") from exc
    p0 = 1 / np.sqrt(_LD(_weight_mass(param)))
    x = seed.astype(_LD)
    # a step is elementwise and deterministic, so a node the last sweep left
    # unchanged is a fixed point of the later sweeps: sweep only the rest
    # (a NaN never compares equal, so it keeps being swept as before)
    moving = np.arange(order)
    for _ in range(_NEWTON_SWEEPS):
        before = x[moving]
        stepped = _newton_step(d, e, p0, order, before)
        x[moving] = stepped
        moving = moving[stepped != before]
    w = _christoffel_weights(d, e, p0, order, x)
    if (not np.all(np.isfinite(x)) or not np.all(np.isfinite(w))
            or np.any(np.diff(x) <= 0) or np.any(w <= 0) or np.any(np.abs(x) >= 1)):
        raise ArithmeticError(
            f"invalid rule for (a={param.a}, b={param.b}) at order {order}")
    return QuadratureRule(nodes=x, weights=w)


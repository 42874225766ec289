"""The power-law memory measure: density, mass profiles, and figure data.

The measure on [0, t] has density (1-alpha)/t^(1-alpha) * (t-x)^(-alpha).
alpha = 0 is the uniform full-history measure; alpha -> 1 concentrates
mass at the current time while keeping a polynomial tail over old history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_jacobi
from .specfun import JacobiParam, check_index, index_label

__all__ = [
    "FractionalMeasure",
    "density",
    "total_mass",
    "mass_oldest",
    "mass_recent",
    "measure_profile",
    "check_time",
]


def check_time(t: float) -> None:
    """Raise ValueError unless the current time t is finite and positive."""
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"current time must be finite and positive, got {t}")


@dataclass(frozen=True)
class FractionalMeasure:
    """Power-law measure with singularity index alpha at current time t.

    The density and mass profiles are closed forms that hold on all of [0, 1)
    (total_mass at alpha = 0.99 deviates 1.6e-15 from 1), so the measure is
    not held to ALPHA_MAX: that bounds the operator pair and all built from it.
    """

    alpha: float
    t: float = 1.0

    def __post_init__(self):
        check_index(self.alpha)
        check_time(self.t)


def density(m: FractionalMeasure, x) -> np.ndarray | float:
    """Measure density at history position x in [0, t).

    Diverges at x = t for alpha > 0; that endpoint is excluded.
    """
    # a scalar is evaluated as a 1-element array: numpy's 0-d power rounds through
    # libm's pow, apart from the array power in about 5% of entries
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((x_arr >= 0.0) & (x_arr < m.t)):   # a NaN fails both comparisons
        raise ValueError("density is defined on [0, t) only")
    out = (1.0 - m.alpha) / m.t ** (1.0 - m.alpha) * (m.t - x_arr) ** (-m.alpha)
    return float(out[0]) if np.ndim(x) == 0 else out


def total_mass(m: FractionalMeasure) -> float:
    """Quadrature check of unit mass, via the substitution x = t(1+eta)/2.

    The substitution maps the density integral onto the Jacobi weight
    (1-eta)^(-alpha), summed by a 32-node Gauss-Jacobi rule; the
    t-dependent factors are kept explicit so that their cancellation is
    exercised numerically rather than algebraically.
    """
    rule = gauss_jacobi(JacobiParam(-m.alpha, 0.0), 32)
    jac = (m.t / 2.0) ** (1.0 - m.alpha)
    pref = (1.0 - m.alpha) / m.t ** (1.0 - m.alpha)
    return pref * jac * float(np.sum(rule.weights))


def mass_oldest(alpha: float, p: float) -> float:
    """Measure of the oldest p-fraction of history, [0, p t]: 1 - (1-p)^(1-alpha)."""
    check_index(alpha)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"fraction must lie in [0, 1], got {p}")
    return 1.0 - (1.0 - p) ** (1.0 - alpha)


def mass_recent(alpha: float, p: float) -> float:
    """Measure of the most recent p-fraction of history, [t(1-p), t]: p^(1-alpha)."""
    check_index(alpha)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"fraction must lie in [0, 1], got {p}")
    return p ** (1.0 - alpha)


def measure_profile(alphas, samples: int, t: float = 1.0):
    """Density table for a list of alphas plus reference measures.

    Returns (header, table): header is the CSV column list
    ``x, alpha_<v>..., legs, lagt, legt``; table is a (samples, len(header))
    float64 array, one row per x.  The grid stops at t(1 - 1e-6) because the
    density diverges at x = t; LegT uses a window of width t/2.  An alpha
    the list repeats raises ValueError: its columns would share a name.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    check_time(t)
    measures = [FractionalMeasure(float(a), t) for a in alphas]
    grid = [m.alpha for m in measures]
    if len(set(grid)) != len(grid):
        raise ValueError(f"alphas {grid} repeat an alpha")
    xs = np.linspace(0.0, t * (1.0 - 1e-6), samples)
    header = ["x"] + [f"alpha_{index_label(a)}" for a in grid] + ["legs", "lagt", "legt"]
    theta = t / 2.0
    table = np.column_stack([xs, *(density(m, xs) for m in measures),
                             np.full(samples, 1.0 / t), np.exp(-(t - xs)),
                             np.where(xs >= t - theta, 1.0 / theta, 0.0)])
    return header, table

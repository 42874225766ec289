"""Fractional-order memory operators for diagonal state space models.

The package builds the operator pair (A(alpha), B(alpha)) of the power-law
projection measure, verifies its analytic properties against brute-force
oracles, and executes the discretized diagonal recurrence: the gated
filter-bank layer runs as a causal convolution with its output kernel,
truncated once every state has decayed below double-precision eps, and is
checked against an exact chunked recurrence in `verify`.
"""

from .measure import (FractionalMeasure, density, mass_oldest, mass_recent, measure_profile,
                      total_mass)
from .operators import HippoOperators, build_A, build_B, build_operators, legs_closed_form
from .quadrature import QuadratureRule, gauss_jacobi, weight_mass
from .specfun import JacobiParam, basis_scale, jacobi_eval_all
from .spectral import SpectralInit, condition_number, eig_triangular, spectral_init
from .ssm import (DiscreteDiagonalSSM, FilterBankConfig, LayerWeights, SequenceBatch,
                  build_filter_bank, layer_forward, silu, zoh_discretize)
from .verify import (OracleReport, check_scale_invariance, ode_consistency,
                     projection_coefficients, run_full_suite)

__version__ = "0.1.0"

__all__ = [
    "JacobiParam", "basis_scale", "jacobi_eval_all",
    "QuadratureRule", "gauss_jacobi", "weight_mass",
    "FractionalMeasure", "density", "mass_oldest", "mass_recent", "measure_profile",
    "total_mass",
    "HippoOperators", "build_A", "build_B", "build_operators", "legs_closed_form",
    "SpectralInit", "condition_number", "eig_triangular", "spectral_init",
    "DiscreteDiagonalSSM", "FilterBankConfig", "LayerWeights", "SequenceBatch",
    "build_filter_bank", "layer_forward", "silu", "zoh_discretize",
    "OracleReport", "check_scale_invariance", "ode_consistency", "projection_coefficients",
    "run_full_suite",
]

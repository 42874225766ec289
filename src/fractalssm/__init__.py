"""Fractional-order memory operators for diagonal state space models.

The package builds the operator pair (A(alpha), B(alpha)) of the power-law
projection measure, verifies its analytic properties against brute-force
oracles, and executes the discretized diagonal recurrence: state
trajectories sequentially or through a chunked scan, and the gated
filter-bank layer as a causal convolution with its output kernel, truncated
once every state has decayed below double-precision eps.
"""

from .measure import (FractionalMeasure, check_scale_invariance, density,
                      mass_oldest, mass_recent, measure_profile, total_mass)
from .operators import HippoOperators, build_A, build_B, build_operators, legs_closed_form
from .quadrature import QuadratureRule, default_order, gauss_jacobi, weight_mass
from .specfun import BasisScale, JacobiParam, basis_scale, generalized_binomial, jacobi_eval_all
from .spectral import SpectralInit, condition_number, eig_triangular, spectral_init
from .ssm import (DiscreteDiagonalSSM, FilterBankConfig, LayerWeights, SequenceBatch,
                  build_filter_bank, layer_forward, recur_scan, recur_sequential,
                  silu, zoh_discretize)
from .verify import OracleReport, ode_consistency, projection_coefficients, run_full_suite

__version__ = "0.1.0"

__all__ = [
    "BasisScale", "JacobiParam", "basis_scale", "generalized_binomial", "jacobi_eval_all",
    "QuadratureRule", "default_order", "gauss_jacobi", "weight_mass",
    "FractionalMeasure", "check_scale_invariance", "density", "mass_oldest",
    "mass_recent", "measure_profile", "total_mass",
    "HippoOperators", "build_A", "build_B", "build_operators", "legs_closed_form",
    "SpectralInit", "condition_number", "eig_triangular", "spectral_init",
    "DiscreteDiagonalSSM", "FilterBankConfig", "LayerWeights", "SequenceBatch",
    "build_filter_bank", "layer_forward", "recur_scan", "recur_sequential",
    "silu", "zoh_discretize",
    "OracleReport", "ode_consistency", "projection_coefficients", "run_full_suite",
]

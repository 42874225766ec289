"""Fractional-order memory operators for diagonal state space models.

The package builds the operator pair (A(alpha), B(alpha)) of the power-law
projection measure, verifies its analytic properties against brute-force
oracles, and executes the discretized diagonal recurrence: the gated
filter-bank layer runs as a causal convolution with its output kernel,
truncated once every state has decayed below double-precision eps, and is
checked against an exact chunked recurrence in `verify`.

`import fractalssm` loads numpy and none of the package's modules: each
public name and each submodule is loaded on first use (PEP 562), so the
build path never compiles the oracles in `verify`, `quadrature`, `specfun`
and `measure`.
"""

import importlib

import numpy  # noqa: F401  (every public name needs it; import time counts it here)

__version__ = "0.1.0"

# the module that owns each public name, in the order of __all__; a module
# with no names here is reached only as a submodule
_EXPORTS = {
    "specfun": ("JacobiParam", "basis_scale", "jacobi_eval_all"),
    "quadrature": ("QuadratureRule", "gauss_jacobi"),
    "measure": ("FractionalMeasure", "density", "mass_oldest", "mass_recent",
                "measure_profile", "total_mass"),
    "operators": ("HippoOperators", "build_A", "build_B", "build_operators",
                  "legs_closed_form"),
    "spectral": ("SpectralInit", "condition_number", "eig_triangular", "spectral_init"),
    "ssm": ("DiscreteDiagonalSSM", "FilterBankConfig", "LayerWeights", "SequenceBatch",
            "build_filter_bank", "layer_forward", "zoh_discretize"),
    "verify": ("OracleReport", "check_scale_invariance", "ode_consistency",
               "projection_coefficients", "run_full_suite"),
    "fileio": (),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    # a name is read from its module at every access and never stored here,
    # so a binding replaced on the module (a tracer's wrapper) is what the
    # package hands out; the import system stores each loaded submodule
    try:
        owner = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{owner}")
    return module if name == owner else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_OWNER))

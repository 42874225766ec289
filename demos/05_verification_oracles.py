"""The brute-force verification suite, and what it does and does not confirm.

Every analytic property is re-derived by an independent numerical route:
quadrature projections, finite differences, dense eigensolvers.  One
check fails at every alpha: condition-growth evaluates its fixed reference
grid whatever grid it is given, and that grid does not describe this
operator's eigenvectors.  Over {0, 0.5} two more fail, both at alpha = 0.5:
table-alpha05, whose printed entry (4, 3) = 8.50 the closed form misses by
1e-4, and ode-consistency[alpha=0.5], the update-law inconsistency for
alpha > 0.  The suite reports these rather than hides them.
"""

import numpy as np

from fractalssm import ode_consistency, projection_coefficients, run_full_suite

# --- the projection oracle -------------------------------------------------
# a constant signal projects onto the leading basis function only
x = projection_coefficients(lambda s: np.full_like(s, 2.0), 0.5, 6, t=1.5, order=32)
print("projection of a constant signal:", np.round(x, 12))

# --- the update-law oracle ---------------------------------------------------
# at alpha = 0 the finite-difference derivative of the coefficients matches
# -(1/t) A x + (1/t) B u to quadrature precision, with clean second-order
# convergence in the step size
report = ode_consistency(0.0, 8, np.sin, t=3.0)
print(f"\nupdate law at alpha=0: deviation {report.max_deviation:.2e}, "
      f"ratio {report.detail[-1]['convergence_ratio']:.2f} -> "
      f"{'PASS' if report.passed else 'FAIL'}")

# at alpha > 0 the same oracle exposes an O(1) inconsistency between the
# published operator pair and the exact coefficient dynamics
report = ode_consistency(0.5, 8, np.sin, t=3.0)
print(f"update law at alpha=0.5: deviation {report.max_deviation:.2e} -> "
      f"{'PASS' if report.passed else 'FAIL'} (known defect of the reference)")

# --- the full suite -------------------------------------------------------------
print("\nfull suite over alpha in {0, 0.5}:")
for r in run_full_suite([0.0, 0.5], 8, seed=0):
    print(f"  {r.name:38s} {r.max_deviation:12.3e}  "
          f"{'PASS' if r.passed else 'FAIL'}  {r.seconds:6.3f} s")

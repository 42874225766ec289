"""Exact eigenstructure of A(alpha) and the diagonal initialization.

The triangular construction pins the eigenvalues at {1, .., n} regardless
of alpha, so diagonalizing costs a forward substitution; conditioning of
the eigenvector basis is the price paid for the triangular form.
"""

import numpy as np

from fractalssm import (build_A, build_B, condition_number, eig_triangular,
                        spectral_init)

# --- exact spectrum -----------------------------------------------------------
for alpha in (0.0, 0.5, 0.9):
    eigs, v, v_inv = eig_triangular(build_A(alpha, 8))
    print(f"alpha={alpha}: eigenvalues {eigs}")

# an off-the-shelf dense solver agrees to 1e-10
a = build_A(0.9, 64)
numeric = np.sort(np.linalg.eigvals(a).real)
print("general-purpose solver deviation at alpha=0.9, 64 states:",
      f"{np.max(np.abs(numeric - np.arange(1, 65))):.2e}")

# --- conditioning ---------------------------------------------------------------
# kappa_1(V), the one-norm condition number of the true triangular eigenbasis,
# grows fast in both n and alpha; kappa_1(A) of the operator itself grows much
# more slowly.
print(f"\n{'n':>4} {'alpha':>6} {'kappa_1(V)':>12} {'kappa_1(A)':>12}")
for n in (8, 16):
    for alpha in (0.0, 0.4, 0.8):
        a = build_A(alpha, n)
        _, v, _ = eig_triangular(a)
        print(f"{n:>4} {alpha:>6} {condition_number(v):>12.3e} "
              f"{condition_number(a):>12.3e}")

# --- the channel initialization --------------------------------------------------
# decay rates -(n+1) exactly; imaginary parts follow the linear ramp pi*n;
# the input vector is pushed through the eigenbasis, b_tilde = V^-1 B.  The
# initialization keeps the eigenvalues, b_tilde and kappa(V), not V itself.
init = spectral_init(0.5, 6, input_width=1)
print("\nspectral initialization at alpha=0.5, six states:")
print("  eigenvalues:", np.round(init.eigenvalues, 3))
print("  |b_tilde|:  ", np.round(np.abs(init.b_tilde[:, 0]), 3))
print("  kappa_1(V): ", f"{init.cond_v:.3e}")

# round trip: V (V^-1 B) recovers the physical input vector, with V rebuilt
# from the same exact eigendecomposition spectral_init used
_, v, _ = eig_triangular(build_A(0.5, 6))
recon = v @ init.b_tilde[:, 0].real
print("  input-vector round-trip deviation:",
      f"{np.max(np.abs(recon - build_B(0.5, 6))):.2e}")

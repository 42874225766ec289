"""Building the operator pair (A(alpha), B(alpha)) and checking its structure.

The state matrix is lower triangular with diagonal n+1 for every alpha;
off-diagonal coupling grows with alpha, most strongly for large index gaps.
"""

import numpy as np

from fractalssm import build_A, build_B, legs_closed_form

np.set_printoptions(precision=2, suppress=True)

# --- the two reference points ------------------------------------------------
print("A(alpha=0), five states (uniform-measure operator):")
print(build_A(0.0, 5))
print("\nA(alpha=0.5), five states:")
print(build_A(0.5, 5))

# alpha = 0 must coincide with the classical closed form sqrt((2n+1)(2k+1))
dev = np.max(np.abs(build_A(0.0, 64) - legs_closed_form(64)))
print(f"\nclosed-form recovery at alpha=0, 64 states: max deviation {dev:.2e}")

# --- input vector -------------------------------------------------------------
print("\nB(alpha) for the first six states:")
for alpha in (0.0, 0.5, 0.9):
    print(f"  alpha={alpha}: {np.round(build_B(alpha, 6), 4)}")
# B_0 = 1 always; at alpha=0 the entries are sqrt(2n+1)

# --- structure under alpha -----------------------------------------------------
print("\ndiagonal is invariant (always 1..n):")
for alpha in (0.0, 0.45, 0.9):
    print(f"  alpha={alpha}: {np.diag(build_A(alpha, 6))}")

print("\noff-diagonal entries strictly increase with alpha:")
for (k, n) in [(0, 1), (3, 4)]:
    trace = np.array([build_A(alpha, n + 1)[n, k] for alpha in (0.0, 0.25, 0.5, 0.75)])
    print(f"  A[{n},{k}]: {np.round(trace, 3)} increasing={bool(np.all(np.diff(trace) > 0))}")

# the relative growth is strongest for the largest index gap n-k
lo, hi = build_A(0.0, 6), build_A(0.5, 6)
growth = [(hi[5, k] - lo[5, k]) / lo[5, k] for k in range(5)]
print("\nrelative growth of row 5 from alpha=0 to 0.5 (k = 0..4):")
print("  " + " ".join(f"{g:.3f}" for g in growth))

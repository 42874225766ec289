"""How the power-law measure allocates memory between old and recent history.

Walks through the density family, the closed-form mass profiles, and the
scale-invariance property of the induced projection coefficients.
"""

import numpy as np

from fractalssm import (FractionalMeasure, check_scale_invariance, density,
                        mass_oldest, mass_recent, measure_profile, total_mass)

# --- densities -----------------------------------------------------------
# alpha = 0 weights all history uniformly; raising alpha moves weight toward
# the present while keeping a polynomial tail over the distant past.
print("density at selected history positions (t = 1):")
xs = [0.0, 0.5, 0.9, 0.99]
print(f"{'x':>6} " + " ".join(f"a={a:<4}" for a in (0.0, 0.3, 0.6, 0.9)))
for x in xs:
    row = [density(FractionalMeasure(a, 1.0), x) for a in (0.0, 0.3, 0.6, 0.9)]
    print(f"{x:>6} " + " ".join(f"{v:6.2f}" for v in row))

# every member of the family is a probability measure
print("\nunit mass across the family:")
for alpha in (0.0, 0.5, 0.9, 0.95):
    m = FractionalMeasure(alpha, t=3.0)
    print(f"  alpha={alpha:4}: total mass = {total_mass(m, order=32):.15f}")

# --- mass profiles ---------------------------------------------------------
# closed forms: the oldest p-fraction carries 1-(1-p)^(1-a), the most recent
# p-fraction carries p^(1-a).  At alpha=0.5 the oldest 10% keeps ~5.1%.
print("\nmass of the oldest 10% vs the most recent 10%:")
for alpha in (0.0, 0.5, 0.9):
    print(f"  alpha={alpha}: oldest {mass_oldest(alpha, 0.1):.4f}, "
          f"recent {mass_recent(alpha, 0.1):.4f}")

# --- figure data ------------------------------------------------------------
# the profile table also carries the three classical reference measures
header, table = measure_profile([0.5], samples=5)
print("\nprofile table columns:", ",".join(header))
for row in table:
    print("  " + " ".join(f"{v:8.4f}" for v in row))

# --- scale invariance -------------------------------------------------------
# projecting u over [0, t] and u(lam * .) over [0, t/lam] gives identical
# coefficients; the quadrature oracle confirms it to rounding noise.
print("\nscale invariance of the projection coefficients:")
for lam in (0.5, 2.0, 3.7):
    dev = check_scale_invariance(0.5, 8, lam, u=np.sin)
    print(f"  dilation {lam}: max coefficient deviation {dev:.3e}")

"""Write kappa_reference.json: the one-norm condition number of A(alpha)'s eigenbasis.

For each (alpha, N) the eigenbasis V is built from the closed form of A(alpha)
at the exact binary value of each float64 alpha, in 100-digit mpmath
arithmetic.  Eigenvector k has a unit pivot at row k and follows by forward
substitution, v[i] = -(sum_{j<i} A[i, j] v[j]) / (i - k) for i > k, since
A(alpha) has n+1 on its diagonal.  Each column is scaled to unit Euclidean
norm, as `eig_triangular` does; V^-1 follows by forward substitution on the
exact V.  The stored value is kappa_1(V) = ||V||_1 ||V^-1||_1, the largest
absolute column sums, rounded to float64.

kappa_1(V) reaches 1e49 at N = 64 and the inverse cancels that many digits,
so 100 digits leave about 50 to spare.

Needs mpmath, which is not a dependency of the package:

    python tests/data/make_kappa_reference.py
"""

import json
from pathlib import Path

import mpmath as mp

from make_operator_reference import closed_form, to_float

ALPHAS = (0.0, 0.5, 0.9, 0.95)
SIZES = (8, 16, 32, 64)
OUT = Path(__file__).resolve().parent / "kappa_reference.json"

DPS = 100


def operator(alpha, n):
    """A(alpha) from its closed form, as rows of mp numbers."""
    gammas, endpoints = closed_form(alpha, n)
    return [[(1 - alpha) * gammas[row] * gammas[col] * endpoints[col] / endpoints[row]
             if col < row else mp.mpf(row + 1 if col == row else 0)
             for col in range(n)] for row in range(n)]


def forward_inverse(m):
    """The inverse of a lower-triangular matrix, row by row."""
    n = len(m)
    x = [[mp.mpf(0)] * n for _ in range(n)]
    for i in range(n):
        x[i][i] = 1 / m[i][i]
        for k in range(i):
            x[i][k] = -mp.fsum(m[i][j] * x[j][k] for j in range(k, i)) / m[i][i]
    return x


def eigenbasis(a):
    """Unit-column eigenbasis of the lower-triangular A with diagonal 1..n."""
    n = len(a)
    v = [[mp.mpf(0)] * n for _ in range(n)]
    for k in range(n):
        v[k][k] = mp.mpf(1)
        for i in range(k + 1, n):
            v[i][k] = -mp.fsum(a[i][j] * v[j][k] for j in range(k, i)) / (i - k)
    for k in range(n):
        scale = mp.sqrt(mp.fsum(v[i][k] ** 2 for i in range(k, n)))
        for i in range(k, n):
            v[i][k] /= scale
    return v


def norm_1(m):
    n = len(m)
    return max(mp.fsum(abs(m[i][k]) for i in range(n)) for k in range(n))


def main() -> None:
    mp.mp.dps = DPS
    kappa = []
    for alpha_float in ALPHAS:
        alpha = mp.mpf(alpha_float)   # exact: the float64 the library is given
        for n in SIZES:
            v = eigenbasis(operator(alpha, n))
            value = norm_1(v) * norm_1(forward_inverse(v))
            kappa.append({"alpha": alpha_float, "n": n, "kappa_1": to_float(value)})
            print(f"alpha={alpha_float} n={n}: kappa_1(V) = {mp.nstr(value, 8)}")
    reference = {
        "about": "kappa_1 of A(alpha)'s unit-column eigenbasis in 100-digit mpmath, "
                 "rounded to float64; written by make_kappa_reference.py",
        "dps": DPS,
        "kappa": kappa,
    }
    OUT.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT.name}: {OUT.stat().st_size} bytes")


if __name__ == "__main__":
    main()

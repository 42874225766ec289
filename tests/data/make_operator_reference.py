"""Write operator_reference.json: A(alpha) and B(alpha) to the last bit.

The entries are evaluated from the closed form

    A_nk = (1-alpha) gamma_n gamma_k P_k(1) / P_n(1)   (k < n),
    B_k  = gamma_k P_k(1),
    gamma_k = sqrt((2k+1-alpha) / (1-alpha)),  P_k(1) = prod_{m<=k} (m-alpha)/m,

in 50-digit mpmath arithmetic, at the exact binary value of each float64
alpha, and stored as the nearest float64 in shortest round-trip notation.
No entry depends on the state dimension, so one table per alpha covers
every n <= 256: B in full, and the strict lower triangle of A for rows
below 64 and every 16th row above (rows 79, 95, .., 255).

The closed form is tied to the definition of the matrix by one Galerkin
projection per alpha at n = 16: the entries (gamma_n / gamma_k)
<P_n + (1+eta) P_n', P_k>_w / h_k, diagonal included, integrated by
`mpmath.quad` against the singular weight w = (1-eta)^(-alpha) on [-1, 1].
Their largest relative distance from the closed form (n+1 on the diagonal)
is recorded.  The quadrature runs in s, where t = 1 - eta = s^(1/(1-alpha))
turns t^(-alpha) dt into ds / (1-alpha): near alpha = 1 the weight puts
mass below any node that tanh-sinh places in t.

Needs mpmath, which is not a dependency of the package:

    python tests/data/make_operator_reference.py
"""

import json
from pathlib import Path

import mpmath as mp

ALPHAS = (0.0, 0.3, 0.5, 0.81, 0.9, 0.95)
N = 256
ROWS = list(range(1, 64)) + list(range(79, N, 16))
QUAD_N = 16
OUT = Path(__file__).resolve().parent / "operator_reference.json"

mp.mp.dps = 50


def to_float(x) -> float:
    # the nearest float64: Python rounds the 40-digit decimal correctly
    return float(mp.nstr(x, 40, strip_zeros=False))


def closed_form(alpha, n):
    """gamma_k and P_k(1), k < n, as mp numbers."""
    gammas = [mp.sqrt((2 * k + 1 - alpha) / (1 - alpha)) for k in range(n)]
    endpoints = [mp.mpf(1)]
    for m in range(1, n):
        endpoints.append(endpoints[-1] * (m - alpha) / m)
    return gammas, endpoints


def jacobi_table(a, b, n_max, x):
    """P_0^(a,b)(x) .. P_{n_max}^(a,b)(x) by the three-term recurrence."""
    p = [mp.mpf(1), (a + b + 2) * x / 2 + (a - b) / 2][:n_max + 1]
    for n in range(2, n_max + 1):
        c1 = 2 * n * (n + a + b) * (2 * n + a + b - 2)
        c2 = (2 * n + a + b - 1) * (2 * n + a + b) * (2 * n + a + b - 2)
        c3 = (2 * n + a + b - 1) * (a * a - b * b)
        c4 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
        p.append(((c2 * x + c3) * p[n - 1] - c4 * p[n - 2]) / c1)
    return p


def galerkin_distance(alpha, n):
    """Largest relative distance of the quadrature projection from the closed form."""
    tables = {}

    def basis(t):
        # P_k and L[P_k] = P_k + (1+x) P_k' at x = 1 - t, shared by every integral
        if t not in tables:
            x = 1 - t
            p = jacobi_table(-alpha, mp.mpf(0), n - 1, x)
            dp = jacobi_table(1 - alpha, mp.mpf(1), n - 2, x)
            image = [p[0]] + [p[k] + (2 - t) * (k + 1 - alpha) / 2 * dp[k - 1]
                              for k in range(1, n)]
            tables[t] = (p, image)
        return tables[t]

    # t = s^power turns t^(-alpha) dt into ds / (1-alpha) on [0, 2^(1-alpha)]
    power, top = 1 / (1 - alpha), mp.mpf(2) ** (1 - alpha)
    gammas, endpoints = closed_form(alpha, n)
    worst = mp.mpf(0)
    for row in range(n):
        for col in range(row + 1):
            ip = mp.quad(lambda s: basis(s ** power)[1][row] * basis(s ** power)[0][col],
                         [0, top]) / (1 - alpha)
            h = 2 ** (1 - alpha) / (2 * col + 1 - alpha)
            value = gammas[row] / gammas[col] * ip / h
            exact = (row + 1 if row == col else
                     (1 - alpha) * gammas[row] * gammas[col] * endpoints[col] / endpoints[row])
            worst = max(worst, abs(value - exact) / exact)
    return worst


def main() -> None:
    tables, quadrature = [], []
    for alpha_float in ALPHAS:
        alpha = mp.mpf(alpha_float)   # exact: the float64 the library is given
        gammas, endpoints = closed_form(alpha, N)
        b = [to_float(g * e) for g, e in zip(gammas, endpoints)]
        a = [[to_float((1 - alpha) * gammas[row] * gammas[col] * endpoints[col]
                       / endpoints[row]) for col in range(row)] for row in ROWS]
        tables.append({"alpha": alpha_float, "b": b, "a": a})
        distance = galerkin_distance(alpha, QUAD_N)
        quadrature.append({"alpha": alpha_float, "max_relative_distance": to_float(distance)})
        print(f"alpha={alpha_float}: quadrature vs closed form at n={QUAD_N}: "
              f"{mp.nstr(distance, 3)}")
    reference = {
        "about": "A(alpha) and B(alpha) from their closed form in 50-digit mpmath, "
                 "rounded to float64; written by make_operator_reference.py",
        "dps": mp.mp.dps,
        "n": N,
        "rows": ROWS,
        "tables": tables,
        "galerkin_quadrature": {"n": QUAD_N, "distances": quadrature},
    }
    OUT.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {OUT.name}: {OUT.stat().st_size} bytes")


if __name__ == "__main__":
    main()

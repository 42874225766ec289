"""CLI outputs against the committed golden files of tests/data/golden.

Keys, shapes, strings, integers and every float not named in BOUNDS must
match the golden file exactly: the schema ids, alpha, n, delta, the oracle's
steps h, the eigenvalues A(alpha) has on its diagonal and the operator pair
`matrix` writes from its closed form in long double.  The fields in BOUNDS are
computed through BLAS, LAPACK or libm, whose summation order and last bits
may differ between builds and thread counts; each compares normwise,
max|x - golden| <= bound * max|golden|.  In an oracle report (`fractal
verify`, `fractal oracle`) REPORT_BOUNDS and NOISE, keyed by the report's
name, name more such fields, and a report's wall time `seconds` is not
compared.  A CSV output (`fractal run`, `fractal measure`) must match the
golden header and first column (the step, or measure's x) exactly and its
other columns within CSV_BOUND, normwise per column.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

# Re-running eig_triangular's recurrence with its dot products summed in
# another order moved b_bar by up to 6e-14 and kappa_v by up to 9e-14.
# Summing condition_number's row inverse in another order (reversed,
# math.fsum) moved kappa_v by up to 6e-14 and kappa_a by up to 1.1e-15.
# Re-summing each oracle projection's dot products in another order (forward,
# reversed, math.fsum, pairwise) moved max_deviation and convergence_ratio by
# up to 3e-13: a central difference over 2h = 6e-4 magnifies their rounding.
BOUNDS = {
    "kappa_v": 1e-11,
    "kappa_a": 1e-12,
    "lambda_bar": 1e-14,
    "b_bar": 1e-12,
    "max_deviation": 1e-11,
    "convergence_ratio": 1e-11,
}
# Measured across OpenBLAS's Prescott, Sandybridge, Haswell and SkylakeX
# kernels, one BLAS thread, and numpy with its AVX-512 and AVX2 loops
# disabled, `fractal verify`'s output moved only in the fields below and
# BOUNDS'; every other field, galerkin-projection's `entry` (the argmax of its
# rounding) included, stayed bit for bit.
# Relative bounds in the report of that name, as in BOUNDS:
REPORT_BOUNDS = {
    # kappa(V) reaches 1e49 at N = 64, far past 1 / eps, so its last digits
    # are rounding: the BLAS kernels moved kappa by up to 3.6e-3 and the
    # ratios, and the worst ratio max_deviation, by up to 8.6e-3
    "condition-growth": {"kappa": 0.1, "ratio": 0.1, "max_deviation": 0.1},
    # b_bar / delta - b_tilde keeps only 1e-5 of b_tilde's digits, so an ulp
    # of b_tilde moves the deviation by about eps / 1e-5 = 2e-11 relative
    "zoh-limit": {"small_step_rel_dev": 1e-9, "max_deviation": 1e-9},
}
# Absolute bounds, max|x - golden| <= bound, in the report of that name: its
# deviations that are 0 in exact arithmetic, so rounding noise.  The BLAS and
# SIMD variants moved layer-equivalence's by up to 2.6e-15 and
# scale-invariance's by up to 1.1e-16; the quadrature checks sum in long
# double, and eigvals of the triangular A(alpha) is LAPACK's, so another build
# may move them too.  1e-13 lies 38x above the largest move and at least 10x
# below each check's tolerance, so no field the bound lets through can turn a
# pass into a fail.
_NOISE = 1e-13
NOISE = {
    "measure-normalization": {"deviation": _NOISE, "max_deviation": _NOISE},
    "scale-invariance": {"deviation": _NOISE, "max_deviation": _NOISE},
    "basis-orthonormality": {"cross": _NOISE, "norm_rel": _NOISE, "max_deviation": _NOISE},
    "galerkin-projection": {"max_relative_deviation": _NOISE, "max_deviation": _NOISE},
    "eigenvalue-invariance": {"deviation": _NOISE, "max_deviation": _NOISE},
    "input-vector-closed-form": {"relative_deviation": _NOISE, "max_deviation": _NOISE},
    "layer-equivalence": {"relative_deviation": _NOISE, "max_deviation": _NOISE},
}
# The run case's FFT layer lies 8.4e-16 from the exact chunked reference of
# verify, normwise; the bound leaves room for other FFT and BLAS builds.
# measure's density columns moved by up to 3.6e-16 relative when its scalar
# pow became numpy's array pow, whose SIMD kernel rounds apart from libm's pow
# in about 5% of entries on an AVX-512 host.
CSV_BOUND = 1e-12


def _compare(got, want, path: str, bounds: dict = BOUNDS, noise: dict | None = None) -> None:
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys differ"
        name = want.get("name")   # an oracle report's, which its detail rows inherit
        bounds = {**bounds, **REPORT_BOUNDS.get(name, {})}
        noise = NOISE.get(name, noise or {})
        for key in want:
            field = f"{path}.{key}"
            if key == "seconds":   # a report's wall time
                continue
            if key in noise:
                _compare_bounded(got[key], want[key], noise[key], field, relative=False)
            elif key in bounds:
                _compare_bounded(got[key], want[key], bounds[key], field)
            else:
                _compare(got[key], want[key], field, bounds, noise)
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for k, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{k}]", bounds, noise)
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def _compare_bounded(got, want, bound: float, path: str, relative: bool = True) -> None:
    g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert g.shape == w.shape, f"{path}: shape {g.shape} != {w.shape}"
    deviation = np.max(np.abs(g - w))
    if relative:
        scale = np.max(np.abs(w))
        assert deviation <= bound * scale, \
            f"{path}: relative deviation {deviation / scale:.2e} > {bound:.0e}"
    else:
        assert deviation <= bound, f"{path}: absolute deviation {deviation:.2e} > {bound:.0e}"


def compare_output(name: str, text: str, golden: str) -> None:
    """Raise AssertionError unless `text` matches the golden file `name` holds as `golden`."""
    if name.endswith(".csv"):
        _compare_csv(text, golden, name)
    else:
        _compare(json.loads(text), json.loads(golden), name)


@pytest.mark.parametrize("name,argv,expected_exit", make_golden.CASES,
                         ids=[case[0] for case in make_golden.CASES])
def test_cli_output_matches_golden(name, argv, expected_exit, tmp_path):
    code, text = make_golden.run_case(argv, tmp_path / name)
    assert code == expected_exit
    compare_output(name, text, (GOLDEN / name).read_text(encoding="utf-8"))


def _compare_csv(got: str, want: str, path: str) -> None:
    (got_header, *got_rows), (want_header, *want_rows) = got.splitlines(), want.splitlines()
    assert got_header == want_header, f"{path}: header {got_header!r} != {want_header!r}"
    g, w = (np.array([row.split(",") for row in rows]) for rows in (got_rows, want_rows))
    assert g.shape == w.shape, f"{path}: shape {g.shape} != {w.shape}"
    assert np.array_equal(g[:, 0], w[:, 0]), f"{path}: first column differs"
    for k in range(1, w.shape[1]):
        _compare_bounded(g[:, k], w[:, k], CSV_BOUND, f"{path} column {k}")


def test_bounded_field_catches_drift():
    want = {"schema_version": "fractal-dssm/1", "b_bar": [[1.0, 0.0], [2.0, -1.0]]}
    drifted = {"schema_version": "fractal-dssm/1", "b_bar": [[1.0, 0.0], [2.0 + 1e-9, -1.0]]}
    _compare(want, want, "same")
    with pytest.raises(AssertionError, match="relative deviation"):
        _compare(drifted, want, "drifted")
    with pytest.raises(AssertionError, match="schema_version"):
        _compare({**want, "schema_version": "fractal-dssm/2"}, want, "schema")


def test_csv_comparison_catches_drift():
    want = "t,y_0\r\n0,1.5\r\n1,-2.0\r\n"
    _compare_csv(want, want, "same")
    with pytest.raises(AssertionError, match="relative deviation"):
        _compare_csv("t,y_0\r\n0,1.5\r\n1,-2.000000001\r\n", want, "drifted")
    with pytest.raises(AssertionError, match="header"):
        _compare_csv("t,u_0\r\n0,1.5\r\n1,-2.0\r\n", want, "header")
    with pytest.raises(AssertionError, match="shape"):
        _compare_csv("t,y_0\r\n0,1.5\r\n", want, "short")


def test_report_bounds_catch_drift():
    want = {"name": "layer-equivalence", "max_deviation": 2e-15, "seconds": 0.5,
            "detail": [{"length": 17, "relative_deviation": 2e-15}]}
    _compare({**want, "seconds": 9.0}, want, "seconds")
    _compare({**want, "detail": [{"length": 17, "relative_deviation": 5e-14}]}, want, "noise")
    with pytest.raises(AssertionError, match="absolute deviation"):
        _compare({**want, "detail": [{"length": 17, "relative_deviation": 2e-13}]}, want,
                 "drifted")
    with pytest.raises(AssertionError, match="length"):
        _compare({**want, "detail": [{"length": 18, "relative_deviation": 2e-15}]}, want,
                 "length")
    kappa = {"name": "condition-growth", "detail": [{"kappa": 1e49, "monotone": True}]}
    _compare({**kappa, "detail": [{"kappa": 1.05e49, "monotone": True}]}, kappa, "kappa")
    with pytest.raises(AssertionError, match="relative deviation"):
        _compare({**kappa, "detail": [{"kappa": 1.2e49, "monotone": True}]}, kappa, "kappa")

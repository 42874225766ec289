"""Command-line surface: construction, verification, analysis, execution.

Exit codes: 0 success, 1 computation or check failure, 2 usage error.
All randomness is seeded (--seed); outputs are byte-reproducible across
identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import fileio
from .measure import measure_profile
from .operators import build_operators, check_alpha
from .quadrature import QuadratureError
from .spectral import condition_number, eig_triangular, spectral_init
from .ssm import (SequenceBatch, check_step, layer_forward, recur_scan, recur_sequential,
                  zoh_discretize)
from .verify import ode_consistency, random_system, run_full_suite

__all__ = ["main"]

_SIGNALS = {
    "sin": np.sin,
    "poly": lambda s: 0.3 * s ** 3 - s + 0.5,
    "const": lambda s: np.ones_like(np.asarray(s, dtype=float)),
}


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1))
    else:
        for line in text_lines:
            print(line)


def _parse_grid(raw: str) -> list[float]:
    try:
        grid = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"malformed alpha grid {raw!r}") from exc
    for alpha in grid:
        check_alpha(alpha)
    return grid


def _cmd_matrix(args) -> int:
    ops = build_operators(args.alpha, args.n, args.quad_order)
    fileio.ensure_parent(args.out)
    fileio.write_operator_file(args.out, ops)
    print(f"wrote {args.out} (alpha={ops.alpha:g}, n={ops.n}, order={ops.quadrature_order})")
    return 0


def _cmd_verify(args) -> int:
    grid = _parse_grid(args.alpha_grid)
    reports = run_full_suite(grid, args.n, seed=args.seed)
    payload = {
        "alpha_grid": grid,
        "n": args.n,
        "reports": [{
            "name": r.name, "max_deviation": r.max_deviation,
            "tolerance": r.tolerance, "passed": r.passed, "seconds": r.seconds,
            "detail": r.detail,
        } for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    lines = [f"{'check':38s} {'max deviation':>14s} {'tolerance':>10s} {'seconds':>8s}  status"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:38s} {r.max_deviation:14.3e} {r.tolerance:10.0e} "
                     f"{r.seconds:8.3f}  {status}")
    n_fail = sum(not r.passed for r in reports)
    lines.append(f"{len(reports)} checks, {n_fail} failed")
    _emit(args, payload, lines)
    return 0 if payload["all_passed"] else 1


def _cmd_spectrum(args) -> int:
    ops = build_operators(args.alpha, args.n, args.quad_order)
    eigenvalues, v, _ = eig_triangular(ops.a)
    kappa_v = condition_number(v)
    kappa_a = condition_number(ops.a)
    payload = {"alpha": args.alpha, "n": args.n,
               "eigenvalues": [float(e) for e in eigenvalues],
               "kappa_v": kappa_v, "kappa_a": kappa_a}
    lines = ["eigenvalues: " + " ".join(f"{e:g}" for e in eigenvalues),
             f"kappa(V) = {kappa_v:.6e}",
             f"kappa(A) = {kappa_a:.6e}"]
    _emit(args, payload, lines)
    return 0


def _cmd_measure(args) -> int:
    alphas = _parse_grid(args.alphas)
    header, rows = measure_profile(alphas, args.samples, args.t)
    fileio.ensure_parent(args.out)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {args.out} ({args.samples} samples, {len(alphas)} alpha column(s))")
    return 0


def _cmd_run(args) -> int:
    config, inits, weights = fileio.read_model_file(args.model)
    z_in = fileio.read_sequence_csv(args.input)
    ssms = [zoh_discretize(init, delta)
            for init, delta in zip(inits, config.delta)]
    z_out = layer_forward(config, weights, ssms, z_in)
    fileio.ensure_parent(args.out)
    fileio.write_sequence_csv(args.out, z_out, prefix="y")
    print(f"wrote {args.out} ({z_out.length} steps, width {z_out.width})")
    return 0


def _cmd_bench(args) -> int:
    if args.repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {args.repeat}")
    if args.len < 1 or args.n < 1 or args.channels < 1:
        raise ValueError("n, len and channels must all be >= 1")
    rng = np.random.default_rng(args.seed)
    systems = [random_system(rng, args.n) for _ in range(args.channels)]
    u = SequenceBatch(rng.standard_normal((args.len, 1)))

    best_seq = best_scan = float("inf")
    deviation = 0.0
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        seq = [recur_sequential(s, u) for s in systems]
        best_seq = min(best_seq, time.perf_counter() - t0)
        t0 = time.perf_counter()
        scan = [recur_scan(s, u) for s in systems]
        best_scan = min(best_scan, time.perf_counter() - t0)
        for a, b_ in zip(seq, scan):
            scale = max(float(np.max(np.abs(a))), 1e-300)
            deviation = max(deviation, float(np.max(np.abs(a - b_))) / scale)
    payload = {"n": args.n, "len": args.len, "channels": args.channels,
               "repeat": args.repeat, "sequential_s": best_seq, "scan_s": best_scan,
               "speedup": best_seq / best_scan if best_scan > 0 else float("inf"),
               "max_relative_deviation": deviation}
    lines = [f"sequential: {best_seq:.6f} s",
             f"scan:       {best_scan:.6f} s",
             f"speedup:    {payload['speedup']:.2f}x",
             f"max relative deviation: {deviation:.3e}"]
    _emit(args, payload, lines)
    return 0


def _cmd_discretize(args) -> int:
    check_step(args.delta)
    init = spectral_init(args.alpha, args.n, args.input_width, args.quad_order)
    ssm = zoh_discretize(init, args.delta)
    fileio.ensure_parent(args.out)
    fileio.write_dssm_file(args.out, ssm)
    print(f"wrote {args.out} (n={args.n}, delta={args.delta:g})")
    return 0


def _cmd_oracle(args) -> int:
    report = ode_consistency(args.alpha, args.n, _SIGNALS[args.signal],
                             t=args.t, h=args.h)
    payload = {"name": report.name, "max_deviation": report.max_deviation,
               "tolerance": report.tolerance, "passed": report.passed,
               "detail": report.detail}
    status = "PASS" if report.passed else "FAIL"
    lines = [f"{report.name}: max deviation {report.max_deviation:.3e} "
             f"(tolerance {report.tolerance:.0e}) {status}"]
    for row in report.detail:
        lines.append("  " + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                      for k, v in row.items()))
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractal",
        description="Fractional-order memory operators: build, verify, analyze, run.")
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(p):
        p.add_argument("--seed", type=int, default=0, help="seed for randomized signals")

    def quad_order(p):
        p.add_argument("--quad-order", type=int, default=None,
                       help="override the default quadrature order")

    def json_flag(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("matrix", help="build the operator pair and write a JSON file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    quad_order(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("verify", help="run the analytic verification suite")
    p.add_argument("--alpha-grid", required=True, help="comma-separated alphas")
    p.add_argument("--n", type=int, default=8)
    seed(p)
    json_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="eigenvalues and conditioning of A(alpha)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    quad_order(p)
    json_flag(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("measure", help="emit the measure-density comparison table")
    p.add_argument("--alphas", required=True, help="comma-separated alphas")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("run", help="run a model file over an input sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="time sequential vs scan recurrence execution")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--repeat", type=int, default=3)
    seed(p)
    json_flag(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("discretize",
                       help="spectral initialization + ZOH step to a discrete system file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input-width", type=int, default=1)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", required=True)
    quad_order(p)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("oracle", help="finite-difference check of the update law")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--signal", choices=sorted(_SIGNALS), default="sin")
    p.add_argument("--t", type=float, default=3.0)
    p.add_argument("--h", type=float, default=None)
    json_flag(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, fileio.SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, QuadratureError, np.linalg.LinAlgError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

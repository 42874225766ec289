"""Command-line surface: construction, verification, analysis, execution.

Exit codes: 0 success, 1 computation or check failure, 2 usage error.
All randomness is seeded (--seed); outputs are byte-reproducible across
identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys

from .operators import build_A, build_operators, check_alpha
from .spectral import condition_number, eig_triangular, spectral_init
from .ssm import check_step, layer_forward, zoh_discretize

# `fileio`, `measure` and `verify` are imported by the commands that use
# them, so `run`, `matrix`, `spectrum` and `discretize` never load the oracles

__all__ = ["main"]


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """Print payload as strict JSON under --json (a non-finite float is null,
    as JSON.stringify writes it), else the text lines."""
    if getattr(args, "json", False):
        # the lenient encoding writes NaN and +-Infinity, which the decoder's
        # constant hook reads back as None
        plain = json.loads(json.dumps(payload, allow_nan=True), parse_constant=lambda _: None)
        print(json.dumps(plain, indent=1, allow_nan=False))
    else:
        for line in text_lines:
            print(line)


def _parse_grid(raw: str) -> list[float]:
    try:
        grid = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"malformed alpha grid {raw!r}") from exc
    if not grid:   # zero checks would report success, zero columns a bare table
        raise ValueError(f"empty alpha grid {raw!r}")
    for alpha in grid:
        check_alpha(alpha)
    return grid


def _cmd_matrix(args) -> int:
    from . import fileio

    ops = build_operators(args.alpha, args.n)
    fileio.write_operator_file(args.out, ops)
    print(f"wrote {args.out} (alpha={ops.alpha:g}, n={ops.n})")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_full_suite

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
    a = build_A(args.alpha, args.n)
    eigenvalues, v, _ = eig_triangular(a)
    kappa_v = condition_number(v)
    kappa_a = condition_number(a)
    payload = {"alpha": args.alpha, "n": args.n,
               "eigenvalues": [float(e) for e in eigenvalues],
               "kappa_v": kappa_v, "kappa_a": kappa_a}
    lines = ["eigenvalues: " + " ".join(f"{e:g}" for e in eigenvalues),
             f"kappa(V) = {kappa_v:.6e}",
             f"kappa(A) = {kappa_a:.6e}"]
    _emit(args, payload, lines)
    return 0


def _cmd_measure(args) -> int:
    from . import fileio
    from .measure import measure_profile

    alphas = _parse_grid(args.alphas)
    header, table = measure_profile(alphas, args.samples, args.t)
    fileio.write_table_csv(args.out, header, table.T)
    print(f"wrote {args.out} ({args.samples} samples, {len(alphas)} alpha column(s))")
    return 0


def _cmd_run(args) -> int:
    from . import fileio

    config, inits, weights = fileio.read_model_file(args.model)
    z_in = fileio.read_sequence_csv(args.input)
    ssms = [zoh_discretize(init, delta)
            for init, delta in zip(inits, config.delta)]
    z_out = layer_forward(config, weights, ssms, z_in)
    fileio.write_sequence_csv(args.out, z_out, prefix="y")
    print(f"wrote {args.out} ({z_out.length} steps, width {z_out.width})")
    return 0


def _cmd_discretize(args) -> int:
    from . import fileio

    check_step(args.delta)
    init = spectral_init(args.alpha, args.n, args.input_width)
    ssm = zoh_discretize(init, args.delta)
    fileio.write_dssm_file(args.out, ssm)
    print(f"wrote {args.out} (n={args.n}, delta={args.delta:g})")
    return 0


def _cmd_oracle(args) -> int:
    from .verify import SIGNALS, ode_consistency

    if args.signal not in SIGNALS:
        raise ValueError(f"unknown signal {args.signal!r}; choose from "
                         + ", ".join(sorted(SIGNALS)))
    report = ode_consistency(args.alpha, args.n, SIGNALS[args.signal],
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

    def json_flag(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("matrix", help="build the operator pair and write a JSON file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
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

    p = sub.add_parser("discretize",
                       help="spectral initialization + ZOH step to a discrete system file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input-width", type=int, default=1)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("oracle", help="finite-difference check of the update law")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--signal", default="sin",
                   help="test signal by name; an unknown name lists the valid ones")
    p.add_argument("--t", type=float, default=3.0)
    p.add_argument("--h", type=float, default=None)
    json_flag(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """argv with each negative number joined to the option before it
    (`--alpha -1e-12` becomes `--alpha=-1e-12`): argparse takes only `-1` and
    `-.5` as numbers and reads a token like `-1e-12` or `-inf` as an option."""
    joined = []
    for token in argv:
        if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                and token.startswith("-") and _is_number(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_numbers(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # fileio.SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

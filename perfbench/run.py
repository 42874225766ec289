#!/usr/bin/env python3
"""Layered benchmark of the fractalssm pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {construct,stream,cli} --seed N \
        --seconds S --trace {0,1}

The package is imported from `src/` of the checkout; the run fails with
exit code 2 when it is missing. With `--trace 0` the run measures the
end-to-end metrics with tracing off; with `--trace 1` it measures the
per-layer metrics instead. Human-readable lines come first, and the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A fuller record (machine facts,
samples, per-pass layer statistics and, for traced runs, every span) is
written to `.perfbench_out/` in the checkout.

Workloads and metrics are described in `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, for this process and the CLI subprocesses it starts. Set
# before numpy is first imported. On a 2-core shared host, OpenBLAS's
# default of one thread per core made `construct` operations 1.8x slower in
# wall time, at twice the CPU time, and far noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from gauge import SpeedGauge  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "throughput": "ops/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "1",
}

# `self_s` is the median over traced passes; every other stat is computed
# from call arguments or counted, and repeats exactly for a given seed
PER_LAYER = {
    "import.fractalssm_s": "s",
    "quadrature.gauss_jacobi.calls": "count",
    "quadrature.gauss_jacobi.self_s": "s",
    "quadrature.gauss_jacobi.nodes": "count",
    "quadrature.gauss_jacobi.distinct_ratio": "1",
    "specfun.jacobi_eval_all.calls": "count",
    "specfun.jacobi_eval_all.self_s": "s",
    "operators.build_A.calls": "count",
    "operators.build_A.self_s": "s",
    "operators.build_A.distinct_ratio": "1",
    "operators.build_B.self_s": "s",
    "spectral.eig_triangular.self_s": "s",
    "spectral.condition_number.self_s": "s",
    "spectral.spectral_init.calls": "count",
    "spectral.spectral_init.self_s": "s",
    "ssm.zoh_discretize.self_s": "s",
    "ssm.recur_scan.calls": "count",
    "ssm.recur_scan.self_s": "s",
    "ssm.recur_scan.steps": "count",
    "ssm.recur_sequential.calls": "count",
    "ssm.recur_sequential.self_s": "s",
    "ssm.recur_sequential.steps": "count",
    "ssm.layer_forward.self_s": "s",
    "ssm.layer_forward.state_bytes": "B",
    "fileio.read_sequence_csv.self_s": "s",
    "fileio.read_sequence_csv.bytes": "B",
    "fileio.write_sequence_csv.self_s": "s",
    "fileio.write_sequence_csv.bytes": "B",
    "fileio.read_model_file.self_s": "s",
    "verify.run_full_suite.self_s": "s",
    "verify.ode_consistency.self_s": "s",
    "cli.main.self_s": "s",
    "trace.errors": "count",
    "trace.overhead_ratio": "1",
}

COMPUTED_STATS = ("calls", "nodes", "steps", "bytes", "state_bytes", "distinct_ratio",
                  "errors")


def _steps(args, result):
    return {"steps": args["u"].length * args["ssm"].lambda_bar.shape[0]}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


COUNTERS = {
    "quadrature.gauss_jacobi": lambda args, result: {"nodes": args["order"]},
    "ssm.recur_scan": _steps,
    "ssm.recur_sequential": _steps,
    # one complex128 per step and state of the whole bank
    "ssm.layer_forward": lambda args, result: {
        "state_bytes": args["z_in"].length * args["config"].total_state * 16},
    "fileio.read_sequence_csv": _file_bytes,
    "fileio.write_sequence_csv": _file_bytes,
}
KEYED = ("quadrature.gauss_jacobi", "operators.build_A")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("construct", "stream", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase; at least one round always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every problem, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def machine_facts() -> dict:
    import numpy as np
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    finfo = np.finfo(np.longdouble)
    facts["longdouble"] = {"precision": int(finfo.precision), "nmant": int(finfo.nmant),
                           "eps": float(finfo.eps)}
    facts["blas"] = _blas_facts(np)
    return facts


def _blas_facts(np) -> dict:
    """Build-time BLAS name and version, plus the threads of each loaded library."""
    import ctypes

    facts = {"name": None, "version": None, "libraries": []}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["name"], facts["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = int(threads())
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode(errors="replace").strip()
        facts["libraries"].append(entry)
    return facts


def fresh_import_seconds() -> float:
    """Time `import fractalssm` inside a new interpreter."""
    code = ("import time\nstart = time.perf_counter()\nimport fractalssm\n"
            "print(time.perf_counter() - start)\nprint(fractalssm.__file__)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, where = proc.stdout.split("\n")[:2]
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fractalssm imported from {where}, not from {SRC}")
    return float(seconds)


def seconds_of(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def median_scaled(gauge, measure) -> tuple[float, list]:
    """Median of SETUP_REPEATS scaled `measure()` seconds, and the raw samples."""
    raw, scaled = [], []
    gauge.tick()
    for _ in range(SETUP_REPEATS):
        raw.append(measure())
        scaled.append(gauge.scale(raw[-1]))
    return statistics.median(scaled), raw


class Tally:
    """Attempted and failed operations, and the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def attempt(self, workload, inputs) -> tuple[float, object]:
        """Run one operation; return its latency and output (None if it raised)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = workload.run_op(inputs)
        except Exception as exc:  # a raising operation is a failed one
            self._fail(f"raised {exc!r}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, output

    def check(self, workload, inputs, output) -> None:
        """Check an output of `attempt`; a failed check fails the operation."""
        if output is None:
            return
        try:
            workload.check(inputs, output)
        except Exception as exc:  # includes CheckFailed
            self._fail(f"check: {exc}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def run_rounds(workload, tally, gauge, first_round: int, budget: float, with_setup=False,
               tracer=None):
    """Run whole rounds until the next one would end past `budget` seconds.

    Returns the raw per-operation latencies, each round's scaled busy time
    (set-up plus operations; input generation and checks excluded), and the
    next round index. With a tracer, each round's layer statistics are kept.
    A round is scaled by the gauge ticks right before and right after it;
    its outputs are checked after the closing tick.
    """
    latencies, busy, snapshots = [], [], []
    r = first_round
    start = time.perf_counter()
    last = 0.0
    while r == first_round or time.perf_counter() - start + last <= budget:
        round_start = time.perf_counter()
        spent = 0.0
        if tracer is not None:
            tracer.reset_stats()
            tracer.op_id = f"setup.{r}"
        inputs_of_round = workload.round_inputs(r)
        outputs = []
        gauge.tick()
        if with_setup:
            spent += seconds_of(workload.setup)
        for i, inputs in enumerate(inputs_of_round):
            if tracer is not None:
                tracer.op_id = f"op.{r}.{i}"
            latency, output = tally.attempt(workload, inputs)
            outputs.append(output)
            latencies.append(latency)
            spent += latency
        busy.append(gauge.scale(spent))
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        for inputs, output in zip(inputs_of_round, outputs):
            tally.check(workload, inputs, output)
        last = time.perf_counter() - round_start
        r += 1
    return latencies, busy, r, snapshots


def warm_up(workload) -> None:
    """One untimed, unchecked operation on an input outside the schedule."""
    if hasattr(workload, "warmup_input"):
        try:
            workload.run_op(workload.warmup_input())
        except Exception:  # the timed operations count any failure
            pass


def timed_run(workload, args, record):
    """End-to-end metrics with tracing off; returns (metrics, tally, lines)."""
    gauge = SpeedGauge(workload.gauge_parts)
    import_s, import_samples = median_scaled(gauge, fresh_import_seconds)
    workload_setup_s, setup_samples = median_scaled(gauge, lambda: seconds_of(workload.setup))
    setup_s = import_s + workload_setup_s
    warm_up(workload)

    tally = Tally()
    latencies, busy, rounds, _ = run_rounds(workload, tally, gauge, 0, args.seconds)
    # the mean operation latency of each round: a `construct` round mixes
    # cells whose costs differ twentyfold, and a median over single
    # operations would jump between cells; other rounds hold one operation
    samples = [b / workload.ops_per_round for b in busy]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    completed = tally.attempted - tally.failed
    metrics = {
        "setup_s": setup_s,
        "throughput": completed / sum(busy),
        "op_p50_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": completed / tally.attempted,
    }
    record.update(import_samples=import_samples, setup_samples=setup_samples,
                  latencies=latencies, round_mean_latencies=samples, ticks=gauge.ticks)
    lines = [
        f"times are scaled to the gauge's reference speed; raw median tick "
        f"{statistics.median(gauge.ticks):.4f} s vs {gauge.reference:.4f} s reference "
        f"({len(gauge.ticks)} ticks of {' + '.join(gauge.parts)})",
        f"setup_s = {setup_s:.4f} s (median import {import_s:.4f} s + median set-up "
        f"{workload_setup_s:.4f} s, {SETUP_REPEATS} samples each; raw medians "
        f"{statistics.median(import_samples):.4f} s and "
        f"{statistics.median(setup_samples):.4f} s)",
        f"throughput = {metrics['throughput']:.4f} ops/s ({completed} ops in "
        f"{sum(busy):.2f} s busy, {rounds} rounds of {workload.ops_per_round})",
        f"op_p50_s = {metrics['op_p50_s']:.4f} s (median of {len(samples)} round means)",
        _tail_line(samples),
        f"peak_rss_mb = {peak_rss_mb:.1f} MB "
        f"({'largest child process' if who == resource.RUSAGE_CHILDREN else 'this process'})",
        f"success_ratio = {metrics['success_ratio']:.4f} 1; failed_ratio = "
        f"{tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted})",
    ]
    return metrics, tally, lines


def _tail_line(latencies) -> str:
    """The highest of p90/p99/p999 with at least ten samples beyond it."""
    n = len(latencies)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        if n * (1 - q) >= 10:
            cut = statistics.quantiles(latencies, n=1000, method="inclusive")
            return f"op_{label}_s = {cut[round(q * 1000) - 1]:.4f} s ({n} round means)"
    return f"no tail percentile: {n} round means leave fewer than 10 beyond p90"


def traced_run(workload, args, record):
    """Per-layer metrics from traced passes; returns (metrics, tally, lines)."""
    from tracer import Tracer

    gauge = SpeedGauge(workload.gauge_parts)
    import_s, import_samples = median_scaled(gauge, fresh_import_seconds)
    workload.setup()
    warm_up(workload)
    tally = Tally()
    half = args.seconds / 2.0
    _, plain, next_round, _ = run_rounds(workload, tally, gauge, 0, half, with_setup=True)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "fractalssm" or name.startswith("fractalssm.")]
    tracer = Tracer(modules, COUNTERS, KEYED)
    with tracer.installed():
        _, traced, _, snapshots = run_rounds(workload, tally, gauge, next_round, half,
                                             with_setup=True, tracer=tracer)
    overhead = statistics.median(traced) / statistics.median(plain)

    metrics, repeating = {}, True
    for name in PER_LAYER:
        func, stat = name.rsplit(".", 1)
        if func in ("import", "trace"):
            continue
        values = [snap.get(func, {}).get(stat, 0) for snap in snapshots]
        if stat == "self_s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            repeating &= all(v == values[0] for v in values)
    metrics["import.fractalssm_s"] = import_s
    metrics["trace.errors"] = max(sum(s["errors"] for s in snap.values()) for snap in snapshots)
    metrics["trace.overhead_ratio"] = overhead
    record.update(import_samples=import_samples, passes_untraced=plain,
                  passes_traced=traced, layer_stats_per_pass=snapshots,
                  computed_counts_repeat=repeating,
                  spans=[list(s) for s in tracer.spans])
    lines = [
        f"traced passes: {len(traced)} (each = set-up + one round), untraced passes: "
        f"{len(plain)}; self_s is the median over traced passes",
        f"computed stats ({', '.join(COMPUTED_STATS)}) are computed, not measured; "
        f"identical across passes: {repeating}",
        f"spans recorded: {len(tracer.spans)}",
    ]
    for name, value in metrics.items():
        kind = "computed" if name.rsplit(".", 1)[1] in COMPUTED_STATS else "measured"
        lines.append(f"{name} = {value:.6g} {PER_LAYER[name]} [{kind}]")
    return metrics, tally, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fractalssm" / "__init__.py").is_file():
        print(f"error: no fractalssm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fractalssm as fs
    import fractalssm.cli  # noqa: F401  (binds fs.cli and fs.fileio)

    if not Path(fs.__file__).resolve().is_relative_to(SRC):
        print(f"error: fractalssm was imported from {fs.__file__}", file=sys.stderr)
        return 2
    import workloads

    sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    options = {"in_process": True} if args.workload == "cli" and args.trace else {}
    workload = workloads.WORKLOADS[args.workload](fs, args.seed, sizes, workdir, **options)
    machine = machine_facts()
    # one CPU for this process and every subprocess it starts, so the gauge
    # ticks on the CPU that does the timed work
    machine["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {machine["pinned_cpu"]})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": machine,
              "operation": workload.describe(),
              "load": "closed loop, one client, one process, pinned to one CPU"}
    try:
        if args.trace:
            metrics, tally, lines = traced_run(workload, args, record)
        else:
            metrics, tally, lines = timed_run(workload, args, record)
    finally:
        workload.close()
        if workdir.exists():
            workdir.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(result=result, failures=tally.messages)
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8")

    print("machine: " + json.dumps(machine))
    print(f"workload: {args.workload}; {record['operation']}; {record['load']}")
    for line in lines + [f"failure: {m}" for m in tally.messages]:
        print(line)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

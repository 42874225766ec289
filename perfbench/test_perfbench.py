"""Tests of the benchmark itself, at tiny problem sizes.

Run from the repository root with `python -m pytest perfbench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed=1, trace=0, cwd=ROOT):
    """Run the benchmark CLI for one round at tiny size; return (stdout lines, result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def computed(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.rsplit(".", 1)[1] in run.COMPUTED_STATS}


def test_spec_matches_the_metrics_the_runner_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = bench(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("machine: ") for line in lines)


@pytest.mark.parametrize("workload, target, corrupt", [
    ("construct", "binom", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
    ("stream", "gated_reference", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
])
def test_corrupted_comparison_counts_as_failed(workload, target, corrupt, monkeypatch,
                                              capsys):
    monkeypatch.setattr(workloads, target, corrupt(getattr(workloads, target)))
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_ratio"]["value"] == 0.0


def test_seed_changes_inputs_but_not_operation_count(tmp_path):
    import fractalssm as fs

    for r in (0, 1):
        one = workloads.Construct(fs, 1, workloads.TINY, tmp_path).round_inputs(r)
        two = workloads.Construct(fs, 2, workloads.TINY, tmp_path).round_inputs(r)
        assert sorted(n for _, n in one) == sorted(n for _, n in two)
        assert sorted(one) != sorted(two)
    streams = [workloads.Stream(fs, seed, workloads.TINY, tmp_path) for seed in (1, 2)]
    first, second = (s.round_inputs(0)[0].values for s in streams)
    assert first.shape == second.shape and not np.array_equal(first, second)

    counts = {}
    for seed in (1, 2):
        for workload in ("construct", "stream"):
            counts.setdefault(workload, set()).add(bench(workload, seed)[1]["attempted"])
    assert all(len(seen) == 1 for seen in counts.values())


@pytest.mark.parametrize("workload", ["construct", "stream"])
def test_computed_counts_repeat_for_a_seed(workload):
    first = computed(bench(workload, seed=3, trace=1)[1])
    second = computed(bench(workload, seed=3, trace=1)[1])
    assert first == second
    assert first[next(n for n in first if n.endswith(".calls"))] > 0


def test_tracer_nests_spans_and_restores_bindings():
    import fractalssm as fs
    from tracer import Tracer

    original = fs.spectral.build_A
    tracer = Tracer([fs, fs.operators, fs.spectral, fs.quadrature, fs.specfun],
                    run.COUNTERS, run.KEYED)
    with tracer.installed():
        assert fs.spectral.build_A is not original
        fs.spectral_init(0.5, 4)
        fs.spectral_init(0.5, 4)
    assert fs.spectral.build_A is original
    stats = tracer.snapshot()
    assert stats["spectral.spectral_init"]["calls"] == 2
    assert stats["operators.build_A"]["distinct_ratio"] == 0.5
    assert stats["quadrature.gauss_jacobi"]["nodes"] == 2 * 8
    names = [span[0] for span in tracer.spans]
    build = tracer.spans[names.index("operators.build_A")]
    assert names[build[3]] == "spectral.spectral_init"
    top = [s for s in tracer.spans if s[3] is None]
    total = sum(end - start for _, start, end, _, _ in top)
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(total, rel=1e-9)


def test_gauge_scales_by_the_mean_of_the_bracketing_ticks():
    from gauge import SpeedGauge

    gauge = SpeedGauge(("numpy", "longdouble"))
    gauge.ticks.append(2 * gauge.reference)
    gauge.timers = {"numpy": lambda: 3 * gauge.reference, "longdouble": lambda: gauge.reference}
    assert gauge.scale(3.0) == pytest.approx(1.0)
    assert gauge.ticks[-1] == pytest.approx(4 * gauge.reference)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""The benchmark's three closed-loop workloads and their correctness checks.

Each workload is driven by one client that issues an operation only after
the previous one has completed. Operations come in rounds: `round_inputs(r)`
builds the inputs of round r from the seed alone, `run_op` is the timed
call into the library, and `check` compares its output with a reference
the benchmark computes itself, outside the timed interval.

Library functions are looked up on their module at call time, so that the
tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter
from scipy.special import binom

# checks of `fractal verify` documented as failing on the seed code; one of
# them turning green is not a failure, any other check failing is
KNOWN_RED = frozenset({"condition-growth", "table-alpha05",
                       "ode-consistency[alpha=0.5]", "ode-consistency[alpha=0.9]"})

# alpha strata of `construct`: the top one is above 0.8, so it takes the 4N
# quadrature order while the other two take 2N
ALPHA_BINS = ((0.0, 0.4), (0.4, 0.8), (0.8, 0.95))

REL_TOL = 1e-10

# the filter bank of `stream` and `cli`: block_state 8 keeps the diagonal
# path accurate to about 1e-11, so the 1e-10 output checks are meaningful
CHANNELS, BLOCK_STATE = 4, 8

# `fractal verify` draws its random systems (state sizes up to 64, lengths
# up to 65536) from its --seed, so its work and memory change with the seed.
# One fixed verify seed keeps every `cli` session the same size; the
# benchmark seed still drives the model weights and the input sequence.
VERIFY_SEED = 0


class CheckFailed(AssertionError):
    """An operation's output disagreed with the benchmark's reference."""


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; `TINY` keeps the benchmark's own tests fast."""

    construct_ns: tuple = (64, 128, 256)
    stream_length: int = 2 ** 18
    cli_length: int = 65536


FULL = Sizes()
TINY = Sizes(construct_ns=(8, 16, 32), stream_length=2 ** 12, cli_length=2 ** 10)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rel_dev(value: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(value - reference))) / max(scale, 1e-300)


def gated_reference(inits, deltas, weights, u: np.ndarray) -> np.ndarray:
    """Single-width gated layer output, recomputed state by state.

    ZOH is redone from the continuous eigenvalues, each state's recurrence
    runs through `scipy.signal.lfilter`, and the SiLU gate is written out;
    none of the library's ssm code is used.
    """
    y = float(weights.d) * u
    column = 0
    for init, delta in zip(inits, deltas):
        lam = init.eigenvalues
        lam_bar = np.exp(delta * lam)
        b_bar = (lam_bar - 1.0) / lam * init.b_tilde[:, 0]
        for j in range(lam.shape[0]):
            x = lfilter([b_bar[j]], [1.0, -lam_bar[j]], u)
            y += (weights.c_tilde[0, column] * x).real
            column += 1
    gate = float(weights.w_gate[0, 0]) * u
    return float(weights.w_out[0, 0]) * y * (gate / (1.0 + np.exp(-gate)))


def _layer_model(fs, seed: int):
    """A 1-in, 1-out filter bank with the default alpha ramp and seeded weights."""
    config = fs.FilterBankConfig(channels=CHANNELS, block_state=BLOCK_STATE)
    inits = fs.build_filter_bank(config)
    rng = np.random.default_rng([seed, 0])
    total = config.total_state
    weights = fs.LayerWeights(
        c_tilde=(rng.standard_normal((1, total))
                 + 1j * rng.standard_normal((1, total))) / np.sqrt(total),
        w_out=rng.standard_normal((1, 1)),
        w_gate=rng.standard_normal((1, 1)),
        d=float(rng.standard_normal()))
    return config, inits, weights


class Construct:
    """Cold operator builds: build_operators, eig_triangular, condition_number.

    A round holds one operation per (n, alpha stratum) cell in a seeded
    order, with alpha drawn afresh inside its stratum, so no (alpha, n)
    repeats and every round costs about the same. The first draw of the
    lowest stratum is alpha = 0, where A has a closed form.
    """

    name = "construct"
    gauge_parts = ("numpy", "longdouble")

    def __init__(self, fs, seed: int, sizes: Sizes, workdir: Path):
        self.fs = fs
        self.seed = seed
        self.ns = sizes.construct_ns
        self.ops_per_round = len(self.ns) * len(ALPHA_BINS)

    def describe(self) -> str:
        return (f"one op = build_operators(alpha, n) + eig_triangular + condition_number; "
                f"a round = {self.ops_per_round} ops, n in {list(self.ns)} x alpha strata "
                f"{[list(b) for b in ALPHA_BINS]}")

    def setup(self) -> None:
        self.round_inputs(0)

    def round_inputs(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, 1, r])
        top = len(ALPHA_BINS) - 1
        cells = []
        for n in self.ns:
            for k, (lo, hi) in enumerate(ALPHA_BINS):
                draw = float(rng.random())
                # the top stratum is (0.8, 0.95], the others [lo, hi)
                alpha = hi - draw * (hi - lo) if k == top else lo + draw * (hi - lo)
                cells.append((0.0 if r == 0 and k == 0 else alpha, n))
        return [cells[i] for i in rng.permutation(len(cells))]

    def warmup_input(self):
        rng = np.random.default_rng([self.seed, 2])
        return (0.1 + 0.2 * float(rng.random()), max(self.ns))

    def run_op(self, cell):
        alpha, n = cell
        ops = self.fs.operators.build_operators(alpha, n)
        diag, v, _ = self.fs.spectral.eig_triangular(ops.a)
        kappa = self.fs.spectral.condition_number(v)
        return ops, diag, v, kappa

    def check(self, cell, output) -> None:
        alpha, n = cell
        ops, diag, v, kappa = output
        a, b = ops.a, ops.b
        _require(a.shape == (n, n) and b.shape == (n,), "wrong operator shapes")
        _require(bool(np.all(np.isfinite(a))), "non-finite entry in A")
        exact = np.arange(1.0, n + 1.0)
        _require(np.array_equal(np.diag(a), exact), "diag(A) is not exactly n+1")
        _require(not np.any(np.triu(a, 1)), "A has a nonzero above the diagonal")
        k = np.arange(n)
        b_ref = np.sqrt((2 * k + 1 - alpha) / (1 - alpha)) * binom(k - alpha, k)
        _require(_rel_dev(b, b_ref) <= REL_TOL, f"B deviates at alpha={alpha}, n={n}")
        if alpha == 0.0:
            legs = np.tril(np.sqrt(np.outer(2 * k + 1, 2 * k + 1)), -1) + np.diag(exact)
            _require(_rel_dev(a, legs) <= REL_TOL, f"A(0) deviates from its closed form, n={n}")
        _require(np.array_equal(diag, exact), "eigenvalues differ from diag(A)")
        residual = np.linalg.norm(a @ v - v * diag) / (np.linalg.norm(a) * np.linalg.norm(v))
        _require(residual <= REL_TOL, f"A V != V diag(lambda), residual {residual:.2e}")
        _require(np.isfinite(kappa) and kappa >= 1.0, f"invalid kappa(V) {kappa}")

    def close(self) -> None:
        pass


class Stream:
    """In-process gated layer: one layer_forward(scan=True) per fresh input."""

    name = "stream"
    ops_per_round = 1
    gauge_parts = ("numpy",)

    def __init__(self, fs, seed: int, sizes: Sizes, workdir: Path):
        self.fs = fs
        self.seed = seed
        self.length = sizes.stream_length

    def describe(self) -> str:
        return (f"one op = layer_forward(scan=True) over {self.length} steps, "
                f"{CHANNELS} channels x {BLOCK_STATE} states")

    def setup(self) -> None:
        fs = self.fs
        self.config, self.inits, self.weights = _layer_model(fs, self.seed)
        self.ssms = [fs.ssm.zoh_discretize(init, delta)
                     for init, delta in zip(self.inits, self.config.delta)]
        self.round_inputs(0)

    def _input(self, key):
        rng = np.random.default_rng([self.seed, *key])
        return self.fs.SequenceBatch(rng.standard_normal((self.length, 1)))

    def round_inputs(self, r: int) -> list:
        return [self._input((1, r))]

    def warmup_input(self):
        return self._input((2,))

    def run_op(self, z_in):
        return self.fs.ssm.layer_forward(self.config, self.weights, self.ssms, z_in,
                                         scan=True)

    def check(self, z_in, output) -> None:
        z = output.values
        _require(z.shape == (self.length, 1), "wrong output shape")
        ref = gated_reference(self.inits, self.config.delta, self.weights, z_in.values[:, 0])
        dev = _rel_dev(z[:, 0], ref)
        _require(dev <= REL_TOL, f"layer output deviates by {dev:.2e}")

    def close(self) -> None:
        pass


class Cli:
    """CLI sessions: `fractal run` on a model and CSV, then `fractal verify`.

    Timed runs start a fresh interpreter per command; the traced run calls
    `fractalssm.cli.main` in-process with its output captured.
    """

    name = "cli"
    ops_per_round = 1

    def __init__(self, fs, seed: int, sizes: Sizes, workdir: Path, in_process=False):
        self.fs = fs
        self.seed = seed
        self.length = sizes.cli_length
        self.in_process = in_process
        # timed operations start interpreters, so the gauge should too
        self.gauge_parts = ("numpy",) if in_process else ("numpy", "spawn")
        workdir.mkdir(parents=True, exist_ok=True)
        self.model = workdir / "model.json"
        self.input = workdir / "in.csv"
        self.out = workdir / "out.csv"
        self.src = Path(fs.__file__).resolve().parent.parent
        self.verify_argv = ["verify", "--alpha-grid", "0,0.5,0.9", "--n", "8", "--json",
                            "--seed", str(VERIFY_SEED)]
        self.run_argv = ["run", "--model", str(self.model), "--input", str(self.input),
                         "--out", str(self.out)]
        self._output_digest = None

    def describe(self) -> str:
        where = "in-process cli.main" if self.in_process else "one subprocess per command"
        return (f"one op = fractal run ({self.length}-step CSV, "
                f"{CHANNELS}x{BLOCK_STATE} model) + fractal "
                f"{' '.join(self.verify_argv)}; {where}")

    def setup(self) -> None:
        fs = self.fs
        self.config, self.inits, self.weights = _layer_model(fs, self.seed)
        fs.fileio.write_model_file(self.model, self.config, self.inits, self.weights)
        rng = np.random.default_rng([self.seed, 1])
        self.u = rng.standard_normal(self.length)
        fs.fileio.write_sequence_csv(self.input, fs.SequenceBatch(self.u))

    def round_inputs(self, r: int) -> list:
        return [r]

    def _command(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.fs.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        env = dict(os.environ, PYTHONPATH=str(self.src))
        proc = subprocess.run([sys.executable, "-m", "fractalssm.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    def run_op(self, session):
        self.out.unlink(missing_ok=True)
        run = self._command(self.run_argv)
        produced = self.out.read_bytes() if self.out.exists() else None
        verify = self._command(self.verify_argv)
        return run, produced, verify

    def check(self, session, output) -> None:
        (run_code, _, run_err), produced, (code, stdout, err) = output
        _require(run_code == 0, f"fractal run exited {run_code}: {run_err.strip()}")
        _require(produced is not None, "fractal run wrote no output file")
        digest = hashlib.sha256(produced).hexdigest()
        if self._output_digest is None:
            table = np.loadtxt(io.StringIO(produced.decode()), delimiter=",", skiprows=1,
                               ndmin=2)
            _require(table.shape == (self.length, 2), "wrong output CSV shape")
            ref = gated_reference(self.inits, self.config.delta, self.weights, self.u)
            dev = _rel_dev(table[:, 1], ref)
            _require(dev <= REL_TOL, f"fractal run output deviates by {dev:.2e}")
            self._output_digest = digest
        _require(digest == self._output_digest, "fractal run output differs between sessions")
        _require(code in (0, 1), f"fractal verify exited {code}: {err.strip()}")
        reports = json.loads(stdout)["reports"]
        _require(bool(reports), "fractal verify reported no checks")
        failing = {r["name"] for r in reports if not r["passed"]}
        unexpected = failing - KNOWN_RED
        _require(not unexpected, f"unexpected verify failures: {sorted(unexpected)}")
        _require(code == (1 if failing else 0), f"verify exit {code} with failing {failing}")

    def close(self) -> None:
        for path in (self.model, self.input, self.out):
            path.unlink(missing_ok=True)


WORKLOADS = {cls.name: cls for cls in (Construct, Stream, Cli)}

"""Write the golden CLI outputs that tests/test_golden.py compares against.

Each case runs one `fractal` command in process and stores what it emits,
byte for byte: the standard output of a `--json` command, or the file a
command writes to `--out` (a CSV's lines end in CRLF, as the CLI writes
them).  The test runs the same CASES and compares their output with the
committed files.  To cover another command, add a case and regenerate:

    PYTHONPATH=src python tests/data/golden/make_golden.py

A regenerated file that differs from the committed one is a change in what
the program emits; say which file changed and why.

The `run` case reads a committed 4x8 model with two inputs and one output
and a 1024-step input.  They are written only when missing, so that a
regenerated run output shows a change in `fractal run`, not in the model
or the input it was given.
"""

import contextlib
import io
from pathlib import Path

import numpy as np

from fractalssm import (FilterBankConfig, LayerWeights, SequenceBatch, build_filter_bank, cli,
                        fileio)

HERE = Path(__file__).resolve().parent
OUT = "{out}"   # stands for the output path of a file-writing case
RUN_MODEL = HERE / "run_model_4x8_w2.json"
RUN_INPUT = HERE / "run_in_1024_w2.csv"

# (golden file, argv, exit code); a case whose argv holds no OUT stores its
# standard output
CASES = [
    ("spectrum_a0.5_n8.json", ["spectrum", "--alpha", "0.5", "--n", "8", "--json"], 0),
    ("spectrum_a0.9_n16.json", ["spectrum", "--alpha", "0.9", "--n", "16", "--json"], 0),
    ("discretize_a0.5_n8.json", ["discretize", "--alpha", "0.5", "--n", "8",
                                 "--delta", "0.01", "--out", OUT], 0),
    ("discretize_a0.9_n16_w2.json", ["discretize", "--alpha", "0.9", "--n", "16",
                                     "--input-width", "2", "--delta", "0.01",
                                     "--out", OUT], 0),
    ("matrix_a0.5_n8.json", ["matrix", "--alpha", "0.5", "--n", "8", "--out", OUT], 0),
    ("matrix_a0.9_n16.json", ["matrix", "--alpha", "0.9", "--n", "16", "--out", OUT], 0),
    # criterion 9 fails at alpha > 0, so both oracle cases exit 1
    ("oracle_a0.5_n8_sin.json", ["oracle", "--alpha", "0.5", "--n", "8", "--signal", "sin",
                                 "--json"], 1),
    ("oracle_a0.3_n16_poly.json", ["oracle", "--alpha", "0.3", "--n", "16",
                                   "--signal", "poly", "--json"], 1),
    ("run_4x8_1024_w2.csv", ["run", "--model", str(RUN_MODEL), "--input", str(RUN_INPUT),
                             "--out", OUT], 0),
    ("measure_a0-0.5-0.9_s64.csv", ["measure", "--alphas", "0,0.5,0.9", "--samples", "64",
                                    "--out", OUT], 0),
    ("measure_a0.25_s17_t3.csv", ["measure", "--alphas", "0.25", "--samples", "17",
                                  "--t", "3", "--out", OUT], 0),
]


def write_run_inputs() -> None:
    """The model and input of the `run` case, from a fixed seed."""
    config = FilterBankConfig(channels=4, block_state=8, input_width=2)
    rng = np.random.default_rng(24)
    total = config.total_state
    weights = LayerWeights(
        c_tilde=(rng.standard_normal((1, total)) + 1j * rng.standard_normal((1, total)))
        / np.sqrt(total),
        w_out=rng.standard_normal((1, 1)), w_gate=rng.standard_normal((1, 2)),
        d=rng.standard_normal((1, 2)))
    fileio.write_model_file(RUN_MODEL, config, build_filter_bank(config), weights)
    # four decimals keep the input file small
    u = np.round(rng.standard_normal((1024, 2)), 4)
    fileio.write_sequence_csv(RUN_INPUT, SequenceBatch(u))


def run_case(argv: list[str], out: Path) -> tuple[int, str]:
    """Exit code and emitted text of one case, with OUT bound to `out`."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([str(out) if arg == OUT else arg for arg in argv])
    return code, out.read_bytes().decode("utf-8") if OUT in argv else stdout.getvalue()


def main() -> None:
    if not (RUN_MODEL.exists() and RUN_INPUT.exists()):
        write_run_inputs()
    for name, argv, expected_exit in CASES:
        target = HERE / name
        code, text = run_case(argv, target)
        if code != expected_exit:
            raise SystemExit(f"{name}: exit {code}, expected {expected_exit}")
        target.write_bytes(text.encode("utf-8"))
        print(f"wrote {name}: {target.stat().st_size} bytes")


if __name__ == "__main__":
    main()

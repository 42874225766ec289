"""Print the FFT length table `ssm._FFT_LENGTHS`: 5-smooth lengths and their cost.

For every 5-smooth length s in [LOW, HIGH] (s = 2^a 3^b 5^c, the lengths
numpy's pocketfft factors into its fastest radices) the script times one
rfft + irfft pair over a batch of max(1, _BATCH_POINTS // s) rows of s
random points, as `ssm._causal_convolve` runs them, and takes the time per
pair.  Each pass times every length once (best of REPEATS calls) in an
order that alternates between ascending and descending, so a drift in the
host's speed spreads over all lengths; a length's time is its best over
PASSES passes.

The table keeps the cost frontier: a length stays only if every longer
length costs more per pair, since `_block_length` would otherwise do better
with the longer one.  It is then thinned from the top: a length goes when
the next longer kept length costs at most THIN times as much, so an
input that falls back to the longer length pays at most 2% more.  Costs are printed relative
to the pair at the table's longest length, to four significant digits.

The table measures one host: pocketfft's fast lengths follow its factor
kernels and the host's caches irregularly, so rerun the script (and
replace the literal in `ssm.py`) when the host or numpy changes.  Run it
pinned to one core with one BLAS thread, on an otherwise idle machine:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 1 \\
        python tests/data/make_fft_lengths.py
"""

import time

import numpy as np

from fractalssm.ssm import _BATCH_POINTS

LOW, HIGH = 8, 1 << 17
PASSES, REPEATS = 9, 3
THIN = 1.02


def smooth_lengths(low: int, high: int) -> list[int]:
    """Every 2^a 3^b 5^c in [low, high], ascending."""
    exponents = range(high.bit_length())
    return sorted(s for a in exponents for b in exponents for c in exponents
                  if low <= (s := 2 ** a * 3 ** b * 5 ** c) <= high)


def pair_seconds(x: np.ndarray) -> float:
    """Best time of REPEATS rfft + irfft pairs over the rows of x, per row."""
    size = x.shape[-1]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        np.fft.irfft(np.fft.rfft(x, axis=-1), size, axis=-1)
        best = min(best, time.perf_counter() - start)
    return best / x.shape[0]


def measure(lengths: list[int]) -> dict[int, float]:
    rng = np.random.default_rng(0)
    inputs = {s: rng.standard_normal((max(1, _BATCH_POINTS // s), s)) for s in lengths}
    best = dict.fromkeys(lengths, float("inf"))
    for p in range(PASSES):
        for s in lengths if p % 2 == 0 else lengths[::-1]:
            best[s] = min(best[s], pair_seconds(inputs[s]))
    return best


def frontier(cost: dict[int, float]) -> list[int]:
    """The lengths every longer length costs more than, thinned by THIN."""
    kept = []
    for s in sorted(cost, reverse=True):
        if not kept or cost[s] < cost[kept[-1]] / THIN:
            kept.append(s)
    return kept[::-1]


def main() -> None:
    cost = measure(smooth_lengths(LOW, HIGH))
    table = frontier(cost)
    top = cost[table[-1]]
    entries = [f"({s}, {float(f'{cost[s] / top:.4g}')!r})" for s in table]
    lines, line = [], "   "
    for entry in entries:
        if len(line) + len(entry) + 2 > 92:
            lines.append(line)
            line = "   "
        line += f" {entry},"
    lines.append(line)
    print(f"# {len(table)} of {len(cost)} 5-smooth lengths in [{LOW}, {HIGH}]; "
          f"the longest pair took {top * 1e6:.1f} us")
    print("_FFT_LENGTHS = (\n" + "\n".join(lines) + "\n)")


if __name__ == "__main__":
    main()

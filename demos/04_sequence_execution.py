"""Running sequences: ZOH discretization, scan execution, the gated layer.

The discrete recurrence is evaluated both step-by-step and through the
chunked scan; a small multi-scale filter bank then processes a signal with
both a slow drift and a sharp transient, through its truncated output
kernel, and is checked against the per-step reference.
"""

import time

import numpy as np

from fractalssm import (FilterBankConfig, LayerWeights, SequenceBatch,
                        build_filter_bank, layer_forward, recur_scan,
                        recur_sequential, spectral_init, zoh_discretize)

# --- discretize one channel ---------------------------------------------------
init = spectral_init(0.5, 8)
ssm = zoh_discretize(init, delta=0.01)
print("discrete decay moduli |lambda_bar| (should be exp(-delta*(n+1))):")
print(" ", np.round(np.abs(ssm.lambda_bar), 5))

# --- scan equals the sequential recurrence --------------------------------------
rng = np.random.default_rng(0)
u = SequenceBatch(rng.standard_normal((4096, 1)))
seq = recur_sequential(ssm, u)
scan = recur_scan(ssm, u)
rel = np.max(np.abs(scan - seq)) / np.max(np.abs(seq))
print(f"\nscan vs sequential on 4096 steps: max relative deviation {rel:.2e}")

# wall-time comparison (the scan is vectorized; speedup is hardware-dependent)
u_long = SequenceBatch(rng.standard_normal((65536, 1)))
t0 = time.perf_counter(); recur_sequential(ssm, u_long); t_seq = time.perf_counter() - t0
t0 = time.perf_counter(); recur_scan(ssm, u_long); t_scan = time.perf_counter() - t0
print(f"65536 steps: sequential {t_seq:.3f}s, scan {t_scan:.3f}s "
      f"({t_seq / t_scan:.1f}x)")

# --- a multi-scale layer ---------------------------------------------------------
# four channels spanning alpha in [0, 0.9]: low alpha retains global context,
# high alpha amplifies local transients
config = FilterBankConfig(channels=4, block_state=6, input_width=1,
                          output_width=1, delta=0.02)
inits = build_filter_bank(config)
ssms = [zoh_discretize(i, d) for i, d in zip(inits, config.delta)]
print("\nfilter bank singularity indices:", config.alphas)

length = 512
t_axis = np.arange(length)
signal = 0.3 * np.sin(2 * np.pi * t_axis / 256.0)     # slow drift
signal[300] += 4.0                                     # sharp transient
z_in = SequenceBatch(signal)

rng = np.random.default_rng(1)
weights = LayerWeights(
    c_tilde=(rng.standard_normal((1, config.total_state))
             + 1j * rng.standard_normal((1, config.total_state))) / 5.0,
    w_out=np.eye(1), w_gate=np.eye(1))
z_out = layer_forward(config, weights, ssms, z_in)

# the layer convolves with its truncated output kernel, W_out and D folded in,
# in overlap-save FFT blocks of about four kernel lengths; scan=False is the
# per-step recur_sequential reference
u_layer = SequenceBatch(rng.standard_normal((16384, 1)))
t0 = time.perf_counter(); fast = layer_forward(config, weights, ssms, u_layer).values
t_fast = time.perf_counter() - t0
t0 = time.perf_counter(); ref = layer_forward(config, weights, ssms, u_layer, scan=False).values
t_ref = time.perf_counter() - t0
dev = np.max(np.abs(fast - ref)) / np.max(np.abs(ref))
print(f"layer, 16384 steps: convolution vs sequential max relative deviation {dev:.2e}")
print(f"layer, 16384 steps: convolution {t_fast:.3f}s, sequential {t_ref:.3f}s "
      f"({t_ref / t_fast:.1f}x)")

peak = int(np.argmax(np.abs(z_out.values[:, 0])))
print(f"layer output peaks at step {peak} (transient injected at 300)")
print("output around the transient:",
      np.round(z_out.values[298:305, 0], 4))

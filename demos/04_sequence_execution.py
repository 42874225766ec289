"""Running sequences: ZOH discretization and the gated layer.

One channel is discretized and its impulse response shown; a small
multi-scale filter bank then processes a signal with both a slow drift and a
sharp transient, through its truncated output kernel, and the layer is timed
on a longer input, at a first call and at a repeated call that reuses the
kernel's spectrum.
"""

import time

import numpy as np

from fractalssm import (FilterBankConfig, LayerWeights, SequenceBatch,
                        build_filter_bank, layer_forward, spectral_init, zoh_discretize)

# --- discretize one channel ---------------------------------------------------
init = spectral_init(0.5, 8)
ssm = zoh_discretize(init, delta=0.01)
print("discrete decay moduli |lambda_bar| (should be exp(-delta*(n+1))):")
print(" ", np.round(np.abs(ssm.lambda_bar), 5))

# an impulse at step 0 leaves the state x_k = lambda_bar^k b_bar
states = ssm.lambda_bar ** np.arange(64)[:, None] * ssm.b_bar[:, 0]
print("impulse response x_k = lambda_bar^k b_bar, |x_k| at k = 0, 16, 32, 63:")
print(" ", np.round(np.linalg.norm(states[[0, 16, 32, 63]], axis=1), 5))

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
# by overlap-save in FFT blocks whose length comes from a measured table: for
# this bank's 1803 taps, 10000 points at 65536 steps; the kernel is one matmul
# of blocked powers lambda^(B k) and lambda^m, B = ceil(sqrt(taps)), each
# state cut once its tail is below eps, and each batch of FFT blocks is gated
# as it is written to the output (`fractal verify`'s layer-equivalence check
# compares it with an exact chunked recurrence; timings are hardware-dependent).
# The kernel's spectrum is kept for the next call on the same bank, so a
# repeated call on a fresh input of the same length skips the kernel step
for label in ("first call", "repeated call"):
    u_layer = SequenceBatch(rng.standard_normal((65536, 1)))
    t0 = time.perf_counter()
    layer_forward(config, weights, ssms, u_layer)
    print(f"layer, 65536 steps, {label}: {time.perf_counter() - t0:.4f}s")

peak = int(np.argmax(np.abs(z_out.values[:, 0])))
print(f"layer output peaks at step {peak} (transient injected at 300)")
print("output around the transient:",
      np.round(z_out.values[298:305, 0], 4))

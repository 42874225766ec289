"""Discrete execution: ZOH discretization and the gated filter-bank layer.

A filter bank stacks channels with distinct singularity indices, each a
diagonal recurrence x_k = lambda_bar * x_{k-1} + b_bar u_k; the layer
output is gated by a SiLU-activated branch of the input.  The layer never
builds the state trajectory.  Its kernel step stacks the bank's poles and
residues, transforms their output kernel, truncated once every state has
decayed below eps (`_output_kernel`), at the FFT block length, and keeps
that spectrum for the next call on the same bank (`_kernel_spectrum`); its
convolution step convolves the input with the spectrum by overlap-save in
FFT blocks that it gates as it writes them (`_causal_convolve`).  `verify`'s
layer-equivalence oracle checks it against an exact chunked recurrence that
shares no code with this module.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; a first layer call must not)
from numpy.lib.stride_tricks import sliding_window_view

from .operators import check_alpha, check_state_dim
from .spectral import SpectralInit, spectral_init

__all__ = [
    "DiscreteDiagonalSSM",
    "FilterBankConfig",
    "LayerWeights",
    "SequenceBatch",
    "check_step",
    "zoh_discretize",
    "build_filter_bank",
    "layer_forward",
]


@dataclass(frozen=True, eq=False)
class DiscreteDiagonalSSM:
    """ZOH-discretized diagonal recurrence parameters."""

    lambda_bar: np.ndarray   # complex, shape (n,)
    b_bar: np.ndarray        # complex, shape (n, input_width)
    delta: float


@dataclass(frozen=True)
class FilterBankConfig:
    """Multi-channel layout: one singularity index per state block."""

    channels: int
    block_state: int
    alphas: tuple = None
    delta: tuple = None
    input_width: int = 1
    output_width: int = 1

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        check_state_dim(self.block_state)
        if self.input_width < 1 or self.output_width < 1:
            raise ValueError("input and output widths must be >= 1")
        alphas = self.alphas
        if alphas is None:
            alphas = tuple(np.linspace(0.0, 0.9, self.channels))
        alphas = tuple(float(a) for a in alphas)
        if len(alphas) != self.channels:
            raise ValueError(f"expected {self.channels} alphas, got {len(alphas)}")
        for alpha in alphas:
            check_alpha(alpha)
        object.__setattr__(self, "alphas", alphas)
        delta = self.delta
        if delta is None:
            delta = (1e-2,) * self.channels
        elif np.isscalar(delta):
            delta = (float(delta),) * self.channels
        else:
            delta = tuple(float(d) for d in delta)
        if len(delta) != self.channels:
            raise ValueError(f"expected {self.channels} timesteps, got {len(delta)}")
        for d in delta:
            check_step(d)
        object.__setattr__(self, "delta", delta)

    @property
    def total_state(self) -> int:
        return self.channels * self.block_state


@dataclass(frozen=True, eq=False)
class LayerWeights:
    """Output map, mixing and gate matrices of one gated layer."""

    c_tilde: np.ndarray            # complex, (output_width, total_state)
    w_out: np.ndarray              # (output_width, output_width)
    w_gate: np.ndarray             # (output_width, input_width)
    d: np.ndarray | float = 0.0    # feedthrough, scalar or (output_width, input_width)


@dataclass(frozen=True, eq=False)
class SequenceBatch:
    """A finite real-valued sequence, shape (length, width)."""

    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):   # the float conversion would drop the imaginary part
            raise ValueError("sequence values must be real, got complex values")
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError("sequence values must be 1-d or 2-d")
        if not np.all(np.isfinite(values)):
            raise ValueError("sequence contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def check_step(delta: float) -> None:
    """Raise ValueError unless the timestep delta is finite and positive."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"timestep must be finite and positive, got {delta}")


def zoh_discretize(init: SpectralInit, delta: float) -> DiscreteDiagonalSSM:
    """Zero-order-hold discretization of a diagonal system with step delta.

    lambda_bar = exp(delta * lambda); b_bar = expm1(delta * lambda)/lambda * b_tilde,
    where expm1 keeps the digits that lambda_bar - 1 cancels at a small step.
    At lambda = 0 (an integrator) b_bar is the limit delta * b_tilde.
    """
    check_step(delta)
    lam = init.eigenvalues
    lambda_bar = np.exp(delta * lam)
    gain = np.divide(np.expm1(delta * lam), lam, out=np.full(lam.shape, delta, complex),
                     where=lam != 0)
    b_bar = gain[:, None] * init.b_tilde
    return DiscreteDiagonalSSM(lambda_bar=lambda_bar, b_bar=b_bar, delta=float(delta))


_EPS = np.finfo(float).eps


def _kernel_taps(radius: np.ndarray, length: int) -> int:
    """Taps of the output kernel on length steps, for states of these radii.

    taps = min(length, ceil(log(eps) / log(max radius))): past it every
    state has decayed by more than eps.  A bank whose states all sit at 0
    keeps one tap, and one with max radius >= 1 does not decay and keeps all
    `length` taps.
    """
    slowest = float(np.max(radius))
    if slowest == 0.0:
        return min(length, 1)
    if slowest < 1.0:
        return min(length, math.ceil(math.log(_EPS) / math.log(slowest)))
    return length


def _output_kernel(poles: np.ndarray, residues: np.ndarray, taps: int) -> np.ndarray:
    """Output kernel K[j, out, in] = Re sum_n residues[out, in, n] poles_n^j, j < taps.

    The provider of the diagonal bank.  The kernel step stacks the bank for
    it: the poles are every channel's lambda_bar, the residues are
    c_n b_bar_n, and the taps are min(length, ceil(log(eps) / log(max|lambda_bar|)))
    (`_kernel_taps`), past which every state has decayed by more than eps.  A
    bank with max|lambda_bar| >= 1 does not decay and keeps all `length`
    taps, so the output of `length` steps sees every tap.

    The powers are never tabulated taps x n.  With B = ceil(sqrt(taps)),
    lambda^(B k + m) = (lambda^B)^k lambda^m, so the n poles build
    head[m] = lambda^m (B x n) and scale[k] = lambda^(B k) (ceil(taps / B) x n)
    by cumprod, and each out x in column of the kernel is the complex matmul
    (scale * residues) @ head^T, read row by row and cut to taps.  Each state
    also stops at its own cut, the least t with r^t / (1 - r) <= eps for its
    radius r = |lambda_bar_n|: t = ceil(log(eps (1 - r)) / log r) for
    0 < r < 1, capped at taps; a state at r = 0 keeps one tap and one at
    r >= 1 keeps all taps.  The cut is rounded up to the end of the block of
    B taps that holds it: a state's head multipliers are zero from the cut
    on, and its scale multipliers from the first block that starts at or
    past it, so no power underflows.  The dropped tail of a state,
    |c_n b_bar_n| r^t / (1 - r) for the t taps it keeps, is then at most
    eps |c_n b_bar_n| where its own cut stops it.  A state capped at taps,
    which the slowest state sets so that r^taps <= eps, drops at most
    eps / (1 - r) |c_n b_bar_n|: at r = e^-0.01 its own cut is 4066, the cap
    3605, and it drops about 100 eps |c_n b_bar_n|.
    """
    radius = np.abs(poles)
    decaying = (radius > 0.0) & (radius < 1.0)
    r = np.where(decaying, radius, 0.5)  # any radius with a finite logarithm
    cut = np.ceil(np.log(_EPS * (1.0 - r)) / np.log(r))
    own = np.where(decaying, np.minimum(cut, taps), np.where(radius == 0.0, 1, taps))
    block = math.isqrt(max(taps, 1) - 1) + 1  # ceil(sqrt(taps))
    rows = -(-taps // block)
    n = poles.shape[0]
    head = np.ones((block, n), dtype=complex)
    np.cumprod(np.where(np.arange(1, block)[:, None] < own, poles, 0.0), axis=0, out=head[1:])
    scale = np.ones((rows, n), dtype=complex)
    step = head[-1] * poles  # lambda^B, or 0 where the state stops before B
    np.cumprod(np.where(block * np.arange(1, rows)[:, None] < own, step, 0.0), axis=0,
               out=scale[1:])
    out_width, in_width = residues.shape[:2]
    part = (scale * residues.reshape(-1, 1, n)).reshape(-1, n) @ head.T
    kernel = part.real.reshape(out_width * in_width, rows * block)[:, :taps]
    return kernel.T.reshape(taps, out_width, in_width)


# transform points per batched FFT call: a batch's windows, spectra and
# inverse transforms then stay a few hundred kB, so each call works in cache
# and reuses freed memory where whole-length temporaries would be fresh pages
_BATCH_POINTS = 1 << 16


# (length, cost): the 5-smooth FFT lengths on the measured cost frontier, each
# with the time of one rfft + irfft pair in a batch of max(1, _BATCH_POINTS //
# length) rows, relative to the pair at the longest length; every longer length
# costs more, so the costs ascend.  One host's measurement (2-core x86-64,
# numpy 2.4, one BLAS thread, pinned), printed by tests/data/make_fft_lengths.py
_FFT_LENGTHS = (
    (8, 1.212e-05), (9, 1.303e-05), (10, 1.367e-05), (12, 1.539e-05), (16, 1.778e-05),
    (20, 2.166e-05), (24, 2.713e-05), (25, 2.779e-05), (32, 3.392e-05), (36, 4.219e-05),
    (40, 4.369e-05), (48, 4.866e-05), (50, 5.643e-05), (54, 5.948e-05), (60, 6.623e-05),
    (64, 6.807e-05), (72, 7.664e-05), (80, 8.61e-05), (81, 9.468e-05), (90, 0.0001024),
    (96, 0.0001078), (100, 0.0001121), (108, 0.000122), (120, 0.0001289), (128, 0.0001317),
    (144, 0.0001494), (160, 0.0001716), (180, 0.0001949), (192, 0.0002016),
    (200, 0.0002187), (216, 0.0002467), (256, 0.0002569), (288, 0.0003281),
    (320, 0.0003382), (324, 0.0003935), (360, 0.0004103), (384, 0.0004284),
    (400, 0.0004497), (432, 0.0005025), (480, 0.0005536), (512, 0.0005761),
    (576, 0.0006507), (600, 0.0007191), (640, 0.0007545), (648, 0.0008192),
    (720, 0.0008454), (768, 0.0008756), (800, 0.0009707), (810, 0.001043), (864, 0.001086),
    (960, 0.001129), (1024, 0.001217), (1080, 0.0014), (1200, 0.00152), (1280, 0.001594),
    (1296, 0.001711), (1350, 0.001954), (1440, 0.002004), (1600, 0.002161),
    (1620, 0.002335), (1728, 0.00268), (1800, 0.002822), (1920, 0.003041), (2000, 0.003159),
    (2025, 0.003282), (2160, 0.003597), (2250, 0.004021), (2500, 0.004153),
    (2560, 0.004567), (2700, 0.004746), (2880, 0.005112), (3125, 0.005346),
    (3200, 0.005609), (3375, 0.006206), (3600, 0.006481), (4000, 0.007091),
    (4500, 0.008325), (4800, 0.00893), (5000, 0.00968), (5120, 0.01001), (6000, 0.01112),
    (6400, 0.01195), (6480, 0.01322), (7500, 0.01441), (8000, 0.0151), (9375, 0.01774),
    (10000, 0.01857), (10125, 0.02194), (10800, 0.02309), (11520, 0.02651),
    (12500, 0.02782), (13500, 0.02981), (15625, 0.03157), (16000, 0.03537),
    (16200, 0.03859), (16384, 0.04048), (16875, 0.0464), (18000, 0.0481), (19200, 0.04985),
    (20480, 0.05347), (24000, 0.05544), (25000, 0.05855), (25600, 0.06211),
    (25920, 0.06376), (27000, 0.06896), (28125, 0.07189), (28800, 0.07731), (29160, 0.1043),
    (34560, 0.1221), (36864, 0.1278), (40960, 0.139), (46080, 0.1557), (49152, 0.1661),
    (51200, 0.1873), (51840, 0.2034), (55296, 0.2099), (61440, 0.2221), (62208, 0.2897),
    (65536, 0.3693), (69120, 0.4118), (73728, 0.4374), (76800, 0.4477), (81920, 0.4697),
    (82944, 0.5119), (86400, 0.5377), (92160, 0.5638), (96000, 0.5808), (102400, 0.6051),
    (103680, 0.6442), (110592, 0.7039), (115200, 0.7403), (122880, 0.7767),
    (128000, 0.8851), (129600, 0.9793), (131072, 1.0),
)
_FFT_SIZES = tuple(size for size, _ in _FFT_LENGTHS)


def _block_length(taps: int, length: int) -> int:
    """Transform length of `_causal_convolve` for a kernel of taps on length steps.

    Several blocks run at the _FFT_LENGTHS entry of least cost per output
    step, cost / (size - taps + 1), among the lengths >= 2 taps, so the
    length depends on the kernel alone.  An input whose length + taps - 1
    points fit in that length goes as one block at the shortest table length
    that holds them.  Past the table, where 2 taps exceed its longest length
    (a bank that does not decay keeps all `length` taps), the length is the
    smallest power of two >= min(4 taps, length + taps - 1).

    The table's costs were measured at each length's batch row count,
    max(1, _BATCH_POINTS // size) rows, and a single block runs fewer rows,
    where the ranking can differ: at one row a 16384-point rfft + irfft pair
    took 223 us against 260 us at 15625 (one BLAS thread, pinned).  So on the
    `stream` bank an input whose length + taps - 1 lies in (13500, 15625]
    runs one block at 15625 where 16384 would be faster.
    """
    need = length + taps - 1
    first = bisect.bisect_left(_FFT_SIZES, 2 * taps)
    if first == len(_FFT_SIZES):
        return 1 << (min(4 * taps, need) - 1).bit_length()
    size = min(_FFT_LENGTHS[first:], key=lambda entry: entry[1] / (entry[0] - taps + 1))[0]
    return _FFT_SIZES[bisect.bisect_left(_FFT_SIZES, need)] if need <= size else size


# [(key, spectrum)] of the last bank `_kernel_spectrum` transformed, or [None]:
# one slot, replaced whole, so a call in another thread never pairs a key
# with another bank's spectrum
_spectrum_memo = [None]


def _kernel_spectrum(ssms: list[DiscreteDiagonalSSM], c_tilde: np.ndarray, w_out: np.ndarray,
                     d: np.ndarray, length: int) -> tuple[int, int, np.ndarray]:
    """The kernel step: taps, block length and spectrum of the folded kernel.

    It stacks the bank once, every channel's lambda_bar (the poles) and
    b_bar in channel order, and takes the taps from the poles' moduli
    (`_kernel_taps`).  The folded kernel is the output kernel of those poles
    with residues c_n b_bar_n (`_output_kernel`), with W_out and D folded
    in, K'[j] = W_out K[j] and K'[0] += W_out D.  Its
    spectrum, shape (out, in, size // 2 + 1), is one rfft at the block length
    `_block_length` takes for its taps on length steps.  One entry is kept
    for the next call.  Its key is the exact bytes, shape and dtype of every
    array the kernel reads (the stacked lambda_bar and b_bar, c_tilde, W_out
    and the matrix D), with the taps and the block length: a call that
    matches it reuses the stored spectrum, which is bit for bit what it would
    recompute, a bank split into other channels that stacks to the same
    arrays included, and any other call, one after an in-place edit of a
    weight included, recomputes the spectrum and replaces the entry.
    """
    poles = np.concatenate([ssm.lambda_bar for ssm in ssms])
    b_bar = np.concatenate([ssm.b_bar for ssm in ssms])
    taps = _kernel_taps(np.abs(poles), length)
    size = _block_length(taps, length)
    key = (taps, size, *((a.dtype.str, a.shape, a.tobytes())
                         for a in (poles, b_bar, c_tilde, w_out, d)))
    entry = _spectrum_memo[0]
    if entry is not None and entry[0] == key:
        return taps, size, entry[1]
    # residues[out, in, n] = c_n b_bar_n, so each column's matmul sums over every state
    kernel = w_out @ _output_kernel(poles, c_tilde[:, None, :] * b_bar.T, taps)
    kernel[:1] += w_out @ d  # a slice: zero-length input has no taps
    spectrum = np.fft.rfft(kernel, size, axis=0).transpose(1, 2, 0)
    spectrum.flags.writeable = False  # the entry must stay what it was computed as
    _spectrum_memo[0] = (key, spectrum)
    return taps, size, spectrum


def _silu_gate(z: np.ndarray, w_gate: np.ndarray) -> np.ndarray:
    """silu(W_gate z) for the rows of z, shape (output_width, rows).

    W_gate z is a sum of broadcast products w_gate[:, i] z[:, i], one per
    input column, so no (rows, in) @ (in, out) matmul runs.  SiLU is
    g * sigmoid(g), computed as g * (1 / (1 + exp(-g))): every step after the
    negation runs in place in one temporary, which is returned.
    """
    gate = w_gate[:, :1] * z[:, 0]
    for i in range(1, z.shape[1]):
        gate += w_gate[:, i:i + 1] * z[:, i]
    t = np.negative(gate)
    # exp(-g) overflows to inf below g = -709, where the sigmoid is exactly 0
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    np.divide(1.0, t, out=t)
    return np.multiply(gate, t, out=t)


def _causal_convolve(kernel_f: np.ndarray, taps: int, size: int, u: np.ndarray,
                     w_gate: np.ndarray) -> np.ndarray:
    """y[k, out] = silu(W_gate u[k])[out] sum_j sum_in K[j, out, in] u[k - j, in].

    The convolution step: it takes the kernel as its spectrum kernel_f, shape
    (out, in, size // 2 + 1), from the kernel step (`_kernel_spectrum`), which
    transforms a kernel of taps steps once at the block length size and
    reuses it across calls on one bank.  The convolution covers the first
    len(u) steps by overlap-save in blocks of that length: every block's
    window reaches taps - 1 steps back into the zero-padded input and keeps
    its last hop = size - taps + 1 outputs, which the circular wrap-around
    does not touch.  The windows go through batched real FFTs of about
    _BATCH_POINTS points each, whose spectra are multiplied by the kernel's
    one input column at a time.  An interior batch reads its windows
    straight from u; only a batch that reaches before step 0 or past the end
    copies its span into a zero-padded segment.  Each batch's inverse
    transform is multiplied by the gate of its rows (`_silu_gate`) into its
    slot of the output, in one pass.
    """
    length, width = u.shape
    out_width = kernel_f.shape[0]
    if length == 0:
        return np.zeros((0, out_width))
    hop = size - taps + 1
    blocks = -(-length // hop)
    batch = max(1, _BATCH_POINTS // size)
    y = np.empty((out_width, blocks * hop))
    for first in range(0, blocks, batch):
        count = min(batch, blocks - first)
        # the batch's windows read u[begin : end], zero outside u
        begin = first * hop - (taps - 1)
        end = begin + count * hop + taps - 1
        if begin >= 0 and end <= length:
            source, offset = u, begin
        else:
            source, offset = np.zeros((end - begin, width)), 0
            lo, hi = max(begin, 0), min(end, length)
            source[lo - begin:hi - begin] = u[lo:hi]
        windows = sliding_window_view(source, size, axis=0)[offset:offset + count * hop:hop]
        windows_f = np.fft.rfft(windows, axis=-1)  # (count, in, freq)
        # spectrum[o, b, f] = sum_i K[f, o, i] U[b, i, f], one broadcast product per input
        spectrum = kernel_f[:, 0, None, :] * windows_f[:, 0]
        for i in range(1, width):
            spectrum += kernel_f[:, i, None, :] * windows_f[:, i]
        # the batch's output rows; past the end of u they read zeros and are cut below
        rows = source[offset + taps - 1:offset + taps - 1 + count * hop]
        slot = y[:, first * hop:(first + count) * hop].reshape(out_width, count, hop)
        np.multiply(np.fft.irfft(spectrum, size, axis=-1)[..., taps - 1:],
                    _silu_gate(rows, w_gate).reshape(out_width, count, hop), out=slot)
    return y[:, :length].T


def build_filter_bank(config: FilterBankConfig) -> list[SpectralInit]:
    """One spectral initialization per channel of the bank."""
    return [spectral_init(alpha, config.block_state, config.input_width)
            for alpha in config.alphas]


def layer_forward(config: FilterBankConfig, weights: LayerWeights,
                  ssms: list[DiscreteDiagonalSSM], z_in: SequenceBatch,
                  scan: bool = True) -> SequenceBatch:
    """Gated layer: filter all channels, project, and gate with SiLU(W_gate z).

    z_out = (W_out y) * silu(W_gate z_in) with y = Re(C_tilde x) + D z_in.
    W_out y is the input convolved with the bank's output kernel, truncated
    where max|lambda_bar|^j falls below eps (see `_output_kernel`), with
    W_out and D folded in: K'[j] = W_out K[j] and K'[0] += W_out D, where a
    scalar D stands for D I.  The layer runs in two steps, split at the
    kernel: after every weight's shape is checked, the kernel step
    (`_kernel_spectrum`) returns the folded kernel's taps, FFT block length
    and spectrum, and the convolution step (`_causal_convolve`) convolves the
    input with that spectrum by overlap-save, multiplying each batch of
    outputs by its rows' gate as it writes them.  The kernel step keeps the
    last bank's spectrum: a call whose stacked lambda_bar and b_bar, C_tilde,
    W_out and D are byte for byte those of the previous call, at a length of
    the same taps and block length, reuses it, and any other call recomputes
    it.  No state trajectory is built, and besides per-batch buffers and the
    kept spectrum the layer allocates only its output.  A non-finite output
    raises ArithmeticError, on every call.

    scan=True is the only accepted value; the keyword stays only until the next
    benchmark change (ROADMAP.md, item 8) drops it from perfbench's `stream`.
    """
    if not scan:
        raise ValueError("the per-step layer path was removed; scan must be True")
    if len(ssms) != config.channels:
        raise ValueError(f"expected {config.channels} channel systems, got {len(ssms)}")
    if z_in.width != config.input_width:
        raise ValueError(
            f"input width {z_in.width} does not match config width {config.input_width}")
    shape = (config.block_state, config.input_width)
    if any(ssm.b_bar.shape != shape or ssm.lambda_bar.shape != shape[:1] for ssm in ssms):
        raise ValueError(f"channel systems must have {shape[0]} states of width {shape[1]}")
    if weights.c_tilde.shape != (config.output_width, config.total_state):
        raise ValueError("output map shape does not match the filter bank")
    if np.shape(weights.w_out) != (config.output_width, config.output_width):
        raise ValueError("output mix shape does not match the output width")
    if np.shape(weights.w_gate) != (config.output_width, config.input_width):
        raise ValueError("gate shape does not match the layer widths")
    d = weights.d
    if np.isscalar(d):
        if d != 0.0 and config.input_width != config.output_width:
            raise ValueError("scalar feedthrough requires matching widths")
        d = d * np.eye(config.output_width, config.input_width)
    elif np.shape(d) != (config.output_width, config.input_width):
        raise ValueError("feedthrough shape does not match the layer widths")
    taps, size, kernel_f = _kernel_spectrum(ssms, weights.c_tilde, np.asarray(weights.w_out),
                                            np.asarray(d), z_in.length)
    z_out = _causal_convolve(kernel_f, taps, size, z_in.values, np.asarray(weights.w_gate))
    try:
        return SequenceBatch(values=z_out)  # its finiteness check is the layer's
    except ValueError as exc:
        raise ArithmeticError("layer produced non-finite activations") from exc

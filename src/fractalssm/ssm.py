"""Discrete execution: ZOH discretization, linear recurrence, gated layer.

The diagonal recurrence x_k = lambda_bar * x_{k-1} + b_bar u_k yields its
state trajectory either sequentially or as a chunked two-level scan: the
chunks step in lockstep, then each chunk's carry is added through powers of
lambda_bar.  A filter bank stacks channels with distinct singularity
indices; the layer output is gated by a SiLU-activated branch of the input.
The layer needs only W_out (Re(C x) + D u), a causal convolution of the
input with the kernel K_j = W_out Re sum_n c_n b_bar_n lambda_bar_n^j, plus
W_out D at j = 0.  It applies that kernel, truncated once every state has
decayed below eps, by overlap-save in FFT blocks sized to the kernel instead
of building the state trajectory.  Each channel's kernel is one matmul of
its powers with the products c_n b_bar_n; the spectral product and the gate
W_gate u are sums of broadcast products over input columns; the FFTs run in
batches of a few hundred kB, so a long input makes no whole-length
temporaries besides the output, the gate and SiLU's one buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .operators import check_alpha
from .spectral import SpectralInit, spectral_init

__all__ = [
    "DiscreteDiagonalSSM",
    "FilterBankConfig",
    "LayerWeights",
    "SequenceBatch",
    "silu",
    "zoh_discretize",
    "recur_sequential",
    "recur_scan",
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
        if self.channels < 1 or self.block_state < 1:
            raise ValueError("channels and block_state must be >= 1")
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
        if len(delta) != self.channels or not all(math.isfinite(d) and d > 0 for d in delta):
            raise ValueError("need one finite positive timestep per channel")
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


def silu(x):
    """SiLU activation x * sigmoid(x), computed as x * (1 / (1 + exp(-x))).

    Every step after the negation runs in place in one temporary, so the
    call allocates a single array of x's size and leaves x unmodified.
    """
    x = np.asarray(x, dtype=float)
    t = np.negative(x, out=np.empty_like(x))
    # exp(-x) overflows to inf below x = -709, where the sigmoid is exactly 0
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    np.divide(1.0, t, out=t)
    np.multiply(x, t, out=t)
    return t[()]  # a scalar for a scalar x, else the array t itself


def _check_step(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"timestep must be finite and positive, got {delta}")


def zoh_discretize(init: SpectralInit, delta: float) -> DiscreteDiagonalSSM:
    """Zero-order-hold discretization of a diagonal system with step delta.

    lambda_bar = exp(delta * lambda); b_bar = (lambda_bar - 1)/lambda * b_tilde.
    """
    _check_step(delta)
    lam = init.eigenvalues
    lambda_bar = np.exp(delta * lam)
    b_bar = ((lambda_bar - 1.0) / lam)[:, None] * init.b_tilde
    return DiscreteDiagonalSSM(lambda_bar=lambda_bar, b_bar=b_bar, delta=float(delta))


def _driven_inputs(ssm: DiscreteDiagonalSSM, u: SequenceBatch) -> np.ndarray:
    if u.width != ssm.b_bar.shape[1]:
        raise ValueError(
            f"input width {u.width} does not match system width {ssm.b_bar.shape[1]}")
    return u.values @ ssm.b_bar.T  # (L, n)


def recur_sequential(ssm: DiscreteDiagonalSSM, u: SequenceBatch) -> np.ndarray:
    """State trajectory of the diagonal recurrence, one step at a time.

    x_0 = b_bar u_0 (zero initial state); returns shape (length, n) complex.
    """
    drive = _driven_inputs(ssm, u)
    out = np.empty_like(drive)
    state = np.zeros(ssm.lambda_bar.shape, dtype=complex)
    for k in range(drive.shape[0]):
        state = ssm.lambda_bar * state + drive[k]
        out[k] = state
    return out


_SCAN_CHUNK = 1024


def recur_scan(ssm: DiscreteDiagonalSSM, u: SequenceBatch) -> np.ndarray:
    """State trajectory via a chunked two-level scan.

    Two-level block decomposition: all chunks run the recurrence in
    lockstep from a zero state (one vectorized step per in-chunk position),
    the chunk-end states are scanned into per-chunk carries, and each carry
    enters its chunk multiplied by lambda_bar^(s+1), the cumulative powers
    of the constant coefficient.  Every pass runs in place in the buffer of
    driven inputs b_bar u_k, which becomes the returned trajectory, so the
    call holds one trajectory-sized array plus chunk-sized scratch.
    Matches recur_sequential to floating-point reassociation tolerance.
    """
    length = u.length
    if length == 0:
        return _driven_inputs(ssm, u).astype(complex)
    lam = ssm.lambda_bar
    n = lam.shape[0]
    chunk = min(_SCAN_CHUNK, length)
    blocks = -(-length // chunk)
    pad = blocks * chunk - length
    if pad:
        # pad the input rather than the drive, so the drive is the only big buffer
        u = SequenceBatch(np.vstack([u.values, np.zeros((pad, u.width))]))
    drive = np.asarray(_driven_inputs(ssm, u), dtype=complex)
    local = drive.reshape(blocks, chunk, n)

    # each chunk starts from a zero state, so its first position is its drive
    step = np.empty((blocks, n), dtype=complex)
    for s in range(1, chunk):
        np.multiply(lam, local[:, s - 1], out=step)
        np.add(step, local[:, s], out=local[:, s])
    # the carries must be scanned from the chunk-end states before any is added
    ends = local[:, -1].copy()

    # prefix coefficients lam^(s+1) within a chunk, and the carry scan
    pows = np.cumprod(np.broadcast_to(lam, (chunk, n)), axis=0)
    lam_chunk = pows[-1]
    carried = np.empty_like(pows)
    running = np.zeros(n, dtype=complex)
    for c in range(1, blocks):
        running = lam_chunk * running + ends[c - 1]
        np.multiply(pows, running, out=carried)
        local[c] += carried
    return drive[:length]


_EPS = np.finfo(float).eps


def _output_kernel(ssms: list[DiscreteDiagonalSSM], c_tilde: np.ndarray,
                   length: int) -> np.ndarray:
    """Output kernel K[j, out, in] = Re sum_n c_n b_bar_n lambda_bar_n^j of the bank.

    The kernel stops at taps = min(length, ceil(log(eps) / log(max|lambda_bar|))):
    past it every state has decayed by more than eps, so the dropped tail
    sum_n |c_n b_bar_n| |lambda_bar_n|^j / (1 - |lambda_bar_n|) is below the
    rounding error the recurrence itself makes.  A bank with
    max|lambda_bar| >= 1 does not decay and keeps all `length` taps.
    Channels are added one at a time, so at most taps x block_state powers
    are held at once; each channel's part is one complex matmul of those
    powers with the (block_state, out * in) products c_n b_bar_n.
    """
    radius = max(float(np.max(np.abs(ssm.lambda_bar))) for ssm in ssms)
    taps = length
    if radius == 0.0:
        taps = min(length, 1)
    elif radius < 1.0:
        taps = min(length, math.ceil(math.log(_EPS) / math.log(radius)))
    out_width, in_width = c_tilde.shape[0], ssms[0].b_bar.shape[1]
    kernel = np.zeros((taps, out_width * in_width))
    start = 0
    for ssm in ssms:
        n = ssm.lambda_bar.shape[0]
        powers = np.ones((taps, n), dtype=complex)
        rest = powers[1:]
        np.cumprod(np.broadcast_to(ssm.lambda_bar, rest.shape), axis=0, out=rest)
        # cb[n, out * in] = c_n b_bar_n, so one matmul sums the channel's states
        cb = c_tilde[:, start:start + n].T[:, :, None] * ssm.b_bar[:, None, :]
        kernel += (powers @ cb.reshape(n, -1)).real
        start += n
    return kernel.reshape(taps, out_width, in_width)


def _fast_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a length numpy's FFT transforms quickly."""
    best = 1 << max(n - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # odd * 2^k for the least k that reaches n
            best = min(best, odd << max(-(-n // odd) - 1, 0).bit_length())
            odd *= 3
        odd5 *= 5
    return best


# transform points per batched FFT call: a batch's windows, spectra and
# inverse transforms then stay a few hundred kB, so each call works in cache
# and reuses freed memory where whole-length temporaries would be fresh pages
_BATCH_POINTS = 1 << 16


def _causal_convolve(kernel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """y[k, out] = sum_j sum_in K[j, out, in] u[k - j, in] for the first len(u) steps.

    Overlap-save in blocks sized to the kernel: the transform length is the
    smallest power of two >= 4 * taps, or the 5-smooth length that covers
    len(u) + taps - 1 at once when that is shorter (one block).  At four
    kernel lengths the overlap is at most a quarter of each transform, and
    a power of two there transforms faster than the 5-smooth length.  Every
    block's window reaches taps - 1 steps back into the zero-padded input
    and keeps its last hop = size - taps + 1 outputs, which the circular
    wrap-around does not touch.  The kernel is transformed once at the block
    length; the windows go through batched real FFTs of about _BATCH_POINTS
    points each, whose spectra are multiplied by the kernel's one input
    column at a time and inverted into their slots of the output.
    """
    length, width = u.shape
    taps, out_width = kernel.shape[:2]
    if length == 0:
        return np.zeros((0, out_width))
    size = min(1 << (4 * taps - 1).bit_length(), _fast_length(length + taps - 1))
    hop = size - taps + 1
    blocks = -(-length // hop)
    batch = max(1, _BATCH_POINTS // size)
    kernel_f = np.fft.rfft(kernel, size, axis=0).transpose(1, 2, 0)  # (out, in, freq)
    y = np.empty((out_width, blocks, hop))
    for first in range(0, blocks, batch):
        count = min(batch, blocks - first)
        # the batch's windows read u[begin : begin + count * hop + taps - 1], zero outside u
        begin = first * hop - (taps - 1)
        segment = np.zeros((width, count * hop + taps - 1))
        lo, hi = max(begin, 0), min(begin + segment.shape[1], length)
        segment[:, lo - begin:hi - begin] = u[lo:hi].T
        windows = sliding_window_view(segment, size, axis=-1)[:, ::hop]  # (in, count, size)
        windows_f = np.fft.rfft(windows, axis=-1)
        # spectrum[o, b, f] = sum_i K[f, o, i] U[i, b, f], one broadcast product per input
        spectrum = kernel_f[:, 0, None, :] * windows_f[0]
        for i in range(1, width):
            spectrum += kernel_f[:, i, None, :] * windows_f[i]
        y[:, first:first + count] = np.fft.irfft(spectrum, size, axis=-1)[..., taps - 1:]
    return y.reshape(out_width, blocks * hop)[:, :length].T


def build_filter_bank(config: FilterBankConfig) -> list[SpectralInit]:
    """One spectral initialization per channel of the bank."""
    return [spectral_init(alpha, config.block_state, config.input_width)
            for alpha in config.alphas]


def layer_forward(config: FilterBankConfig, weights: LayerWeights,
                  ssms: list[DiscreteDiagonalSSM], z_in: SequenceBatch,
                  scan: bool = True) -> SequenceBatch:
    """Gated layer: filter all channels, project, and gate with SiLU(W_gate z).

    z_out = (W_out y) * silu(W_gate z_in) with y = Re(C_tilde x) + D z_in.
    With scan=True (the default) W_out y is the input convolved with the
    bank's output kernel, truncated where max|lambda_bar|^j falls below eps
    (see `_output_kernel`), with W_out and D folded in: K'[j] = W_out K[j]
    and K'[0] += W_out D, a scalar D standing for D I.  The convolution runs
    by overlap-save in FFT blocks of about four kernel lengths (see
    `_causal_convolve`); no state trajectory is built.  scan=False runs
    `recur_sequential` on every channel and applies D and W_out after it,
    the per-step reference.  On both paths W_gate z is a sum of broadcast
    products z[:, i] w_gate[:, i], and the gate multiplies W_out y in place.
    Every weight's shape is checked before any channel runs.
    """
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
    elif np.shape(d) != (config.output_width, config.input_width):
        raise ValueError("feedthrough shape does not match the layer widths")
    if scan:
        kernel = weights.w_out @ _output_kernel(ssms, weights.c_tilde, z_in.length)
        if np.isscalar(d):
            d = d * np.eye(config.output_width, config.input_width)
        kernel[:1] += weights.w_out @ d  # a slice: zero-length input has no taps
        z_out = _causal_convolve(kernel, z_in.values)
    else:
        states = np.concatenate([recur_sequential(ssm, z_in) for ssm in ssms], axis=1)
        y = (states @ weights.c_tilde.T).real
        if not np.isscalar(d):
            y = y + z_in.values @ np.asarray(d).T
        elif d != 0.0:
            y = y + d * z_in.values
        z_out = y @ weights.w_out.T
    # W_gate z as one broadcast product per input column: no (L, in) @ (in, out) matmul
    z, w_gate = z_in.values, np.asarray(weights.w_gate)
    gate = z[:, :1] * w_gate[:, 0]
    for i in range(1, config.input_width):
        gate += z[:, i:i + 1] * w_gate[:, i]
    z_out *= silu(gate)  # W_out y is a fresh array on both paths
    if not np.all(np.isfinite(z_out)):
        raise ArithmeticError("layer produced non-finite activations")
    return SequenceBatch(values=z_out)

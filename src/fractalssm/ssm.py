"""Discrete execution: ZOH discretization, linear recurrence, gated layer.

The diagonal recurrence x_k = lambda_bar * x_{k-1} + b_bar u_k yields its
state trajectory either sequentially or as a chunked two-level scan: the
chunks step in lockstep, then each chunk's carry is added through powers of
lambda_bar.  A filter bank stacks channels with distinct singularity
indices; the layer output is gated by a SiLU-activated branch of the input.
The layer needs only y = Re(C x), a causal convolution of the input with
the kernel K_j = Re sum_n c_n b_bar_n lambda_bar_n^j, so it applies that
kernel, truncated once every state has decayed below eps, with one real FFT
instead of building the state trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """SiLU activation x * sigmoid(x)."""
    x = np.asarray(x, dtype=float)
    # exp(-x) overflows to inf below x = -709, where the sigmoid is exactly 0
    with np.errstate(over="ignore"):
        return x * (1.0 / (1.0 + np.exp(-x)))


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
    are held at once.
    """
    radius = max(float(np.max(np.abs(ssm.lambda_bar))) for ssm in ssms)
    taps = length
    if radius == 0.0:
        taps = min(length, 1)
    elif radius < 1.0:
        taps = min(length, math.ceil(math.log(_EPS) / math.log(radius)))
    kernel = np.zeros((taps, c_tilde.shape[0], ssms[0].b_bar.shape[1]))
    start = 0
    for ssm in ssms:
        n = ssm.lambda_bar.shape[0]
        powers = np.ones((taps, n), dtype=complex)
        rest = powers[1:]
        np.cumprod(np.broadcast_to(ssm.lambda_bar, rest.shape), axis=0, out=rest)
        kernel += np.einsum("jn,on,ni->joi", powers, c_tilde[:, start:start + n],
                            ssm.b_bar).real
        start += n
    return kernel


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


def _causal_convolve(kernel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """y[k, out] = sum_j sum_in K[j, out, in] u[k - j, in] for the first len(u) steps."""
    length = u.shape[0]
    size = _fast_length(length + kernel.shape[0] - 1)
    spectrum = np.einsum("foi,fi->fo", np.fft.rfft(kernel, size, axis=0),
                         np.fft.rfft(u, size, axis=0))
    return np.fft.irfft(spectrum, size, axis=0)[:length]


def build_filter_bank(config: FilterBankConfig) -> list[SpectralInit]:
    """One spectral initialization per channel of the bank."""
    return [spectral_init(alpha, config.block_state, config.input_width)
            for alpha in config.alphas]


def layer_forward(config: FilterBankConfig, weights: LayerWeights,
                  ssms: list[DiscreteDiagonalSSM], z_in: SequenceBatch,
                  scan: bool = True) -> SequenceBatch:
    """Gated layer: filter all channels, project, and gate with SiLU(W_gate z).

    z_out = (W_out y) * silu(W_gate z_in) with y = Re(C_tilde x) + D z_in.
    With scan=True (the default) Re(C_tilde x) is the input convolved with
    the bank's output kernel, truncated where max|lambda_bar|^j falls below
    eps (see `_output_kernel`), through one real FFT; no state trajectory
    is built.  scan=False runs `recur_sequential` on every channel, the
    per-step reference.
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
    if scan:
        y = _causal_convolve(_output_kernel(ssms, weights.c_tilde, z_in.length), z_in.values)
    else:
        states = np.concatenate([recur_sequential(ssm, z_in) for ssm in ssms], axis=1)
        y = (states @ weights.c_tilde.T).real
    d = weights.d
    if np.isscalar(d):
        if d != 0.0:
            if config.input_width != config.output_width:
                raise ValueError("scalar feedthrough requires matching widths")
            y = y + d * z_in.values
    else:
        y = y + z_in.values @ np.asarray(d).T
    gate = silu(z_in.values @ weights.w_gate.T)
    z_out = (y @ weights.w_out.T) * gate
    if not np.all(np.isfinite(z_out)):
        raise ArithmeticError("layer produced non-finite activations")
    return SequenceBatch(values=z_out)

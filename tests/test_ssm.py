"""Discretization, the output kernel, and the gated layer against its chunked reference."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalssm.ssm as ssm_mod
from fractalssm.spectral import SpectralInit, spectral_init
from fractalssm.ssm import (_FFT_LENGTHS, _FFT_SIZES, DiscreteDiagonalSSM, FilterBankConfig,
                            LayerWeights, SequenceBatch, _block_length, _kernel_taps,
                            _output_kernel, _silu_gate, build_filter_bank, layer_forward,
                            zoh_discretize)
from fractalssm.verify import _layer_reference, _random_system


def toy_init(lam: complex) -> SpectralInit:
    return SpectralInit(eigenvalues=np.array([lam]),
                        b_tilde=np.array([[1.0 + 0.0j]]), cond_v=1.0)


def bank_kernel(ssms, c_tilde, length: int) -> np.ndarray:
    """`_output_kernel` of the bank on length steps, stacked as the kernel step stacks it."""
    poles = np.concatenate([ssm.lambda_bar for ssm in ssms])
    b_bar = np.concatenate([ssm.b_bar for ssm in ssms])
    return _output_kernel(poles, c_tilde[:, None, :] * b_bar.T,
                          _kernel_taps(np.abs(poles), length))


def random_system(rng, n: int, width: int = 1) -> DiscreteDiagonalSSM:
    radius = rng.uniform(0.05, 0.99, size=n)
    phase = rng.uniform(-np.pi, np.pi, size=n)
    b = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    return DiscreteDiagonalSSM(lambda_bar=radius * np.exp(1j * phase), b_bar=b, delta=1.0)


class TestZohDiscretize:
    def test_log_two_step(self):
        ssm = zoh_discretize(toy_init(-1.0 + 0.0j), math.log(2.0))
        assert ssm.lambda_bar[0] == pytest.approx(0.5)
        assert ssm.b_bar[0, 0] == pytest.approx(0.5)

    def test_small_step_limit(self):
        init = spectral_init(0.5, 8)
        delta = 1e-6
        ssm = zoh_discretize(init, delta)
        rel = np.max(np.abs(ssm.b_bar / delta - init.b_tilde) / np.abs(init.b_tilde))
        assert rel < 1e-4

    @pytest.mark.parametrize("delta", [1e-4, 1e-2, 1.0, 25.0])
    def test_strict_stability(self, delta):
        init = spectral_init(0.3, 12)
        ssm = zoh_discretize(init, delta)
        moduli = np.abs(ssm.lambda_bar)
        assert np.all(moduli < 1.0)
        assert moduli == pytest.approx(np.exp(-delta * np.arange(1, 13)), rel=1e-12)

    def test_invalid_step(self):
        for delta in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                zoh_discretize(toy_init(-1.0), delta)

    @pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-9, 1e-12])
    def test_small_steps_keep_full_precision(self, delta):
        # b_bar / b_tilde = (exp(delta lambda) - 1) / lambda = delta sum_k z^k / (k + 1)!
        # with z = delta lambda; |z| <= 0.25 here, so 30 terms converge
        init = spectral_init(0.5, 8)
        z = delta * init.eigenvalues
        term = np.full_like(z, delta)
        series = term.copy()
        for k in range(1, 30):
            term = term * z / (k + 1)
            series += term
        ssm = zoh_discretize(init, delta)
        rel = np.abs(ssm.b_bar[:, 0] / init.b_tilde[:, 0] - series) / np.abs(series)
        assert np.max(rel) <= 1e-15

    def test_zero_eigenvalue_takes_the_limit(self):
        # an integrator: expm1(delta lambda) / lambda -> delta as lambda -> 0
        init = SpectralInit(eigenvalues=np.array([0.0, -1.0 + 0.5j]),
                            b_tilde=np.array([[0.3 - 2.0j], [1.5 + 0.25j]]), cond_v=1.0)
        delta = 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ssm = zoh_discretize(init, delta)
        assert ssm.b_bar[0, 0] == delta * init.b_tilde[0, 0]
        lam = init.eigenvalues[1]
        assert ssm.b_bar[1, 0] == (np.expm1(delta * lam) / lam) * init.b_tilde[1, 0]
        assert np.array_equal(ssm.lambda_bar, np.exp(delta * init.eigenvalues))


class TestScanEquivalence:
    """layer_forward's convolution against verify's chunked recurrence,
    `_layer_reference`, on random one-channel layers, through
    TestConvolutionPath's helpers."""

    @staticmethod
    def assert_paths_agree(ssm, u, seed):
        width = ssm.b_bar.shape[1]
        config, weights = TestConvolutionPath.layer(
            [ssm], width=width, out_width=2, seed=seed,
            d=np.random.default_rng(seed).standard_normal((2, width)))
        TestConvolutionPath.assert_paths_agree(config, weights, [ssm], u)

    @pytest.mark.parametrize("length", [1, 2, 3, 17, 256, 1000, 1024])
    def test_matches_sequential(self, length):
        rng = np.random.default_rng(length)
        ssm = random_system(rng, 8)
        self.assert_paths_agree(ssm, SequenceBatch(rng.standard_normal((length, 1))), length)

    @pytest.mark.parametrize("length", [2049, 3072, 3073, 4096, 5000])
    def test_multi_chunk_matches_sequential(self, length):
        # the slowest state, at modulus 0.8, sets 162 taps: FFT blocks of 1024
        # points advance 863 steps, so the input runs in three to six blocks,
        # the last one short, and the kernel reaches back across each boundary
        rng = np.random.default_rng(length)
        ssm = random_system(rng, 12, width=2)
        slow = np.array([0.8, 0.75, 0.7]) * np.exp(1j * np.array([0.0, 0.3, -2.0]))
        ssm = DiscreteDiagonalSSM(lambda_bar=np.concatenate([slow, 0.7 * ssm.lambda_bar[3:]]),
                                  b_bar=ssm.b_bar, delta=1.0)
        assert 8 * TestConvolutionPath.taps([ssm], length) < length
        values = rng.standard_normal((length, 2))
        u = SequenceBatch(values.copy())
        self.assert_paths_agree(ssm, u, length)
        assert np.array_equal(u.values, values)

    def test_convolution_holds_no_trajectory(self):
        # the convolution builds no state trajectory: its peak stays far
        # below the 64 MB a 64-state, 65536-step trajectory would take
        rng = np.random.default_rng(5)
        ssm = random_system(rng, 64)
        config, weights = TestConvolutionPath.layer([ssm], seed=5)
        u = SequenceBatch(rng.standard_normal((65536, 1)))
        tracemalloc.start()
        try:
            layer_forward(config, weights, [ssm], u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 65536 * 64 * 16

    def test_zero_length(self):
        # the reference, like the layer (TestConvolutionPath.test_zero_length),
        # maps an empty input to an empty output of the layer's width
        ssm = random_system(np.random.default_rng(7), 5, width=2)
        config, weights = TestConvolutionPath.layer([ssm], width=2, out_width=3, seed=7)
        u = SequenceBatch(np.zeros((0, 2)))
        assert _layer_reference([ssm], u, weights).shape == (0, 3)

    def test_long_sequence(self):
        rng = np.random.default_rng(99)
        ssm = random_system(rng, 64)
        self.assert_paths_agree(ssm, SequenceBatch(rng.standard_normal((65536, 1))), 99)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 12), length=st.integers(1, 200), seed=st.integers(0, 10))
    def test_random_shapes(self, n, length, seed):
        rng = np.random.default_rng(seed)
        ssm = random_system(rng, n, width=2)
        self.assert_paths_agree(ssm, SequenceBatch(rng.standard_normal((length, 2))), seed)


class TestFilterBank:
    def test_single_channel_is_uniform(self):
        config = FilterBankConfig(channels=1, block_state=4)
        assert config.alphas == (0.0,)

    def test_four_channel_spacing(self):
        config = FilterBankConfig(channels=4, block_state=4)
        assert config.alphas == pytest.approx((0.0, 0.3, 0.6, 0.9))

    def test_two_channel_endpoints(self):
        config = FilterBankConfig(channels=2, block_state=4)
        assert config.alphas == pytest.approx((0.0, 0.9))

    def test_build_bank(self):
        config = FilterBankConfig(channels=3, block_state=4, input_width=2)
        inits = build_filter_bank(config)
        assert len(inits) == 3
        for init, alpha in zip(inits, config.alphas):
            single = spectral_init(alpha, 4, 2)
            assert np.array_equal(init.eigenvalues, single.eigenvalues)
            assert np.array_equal(init.b_tilde, single.b_tilde)
            assert init.b_tilde.shape == (4, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterBankConfig(channels=0, block_state=4)
        with pytest.raises(ValueError):
            FilterBankConfig(channels=2, block_state=4, alphas=(0.0,))
        with pytest.raises(ValueError):
            FilterBankConfig(channels=1, block_state=4, alphas=(0.99,))
        for delta in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="timestep"):
                FilterBankConfig(channels=1, block_state=4, delta=delta)
        # the state-dimension bound is the operators' own
        for block in (0, 257):
            with pytest.raises(ValueError, match=r"\[1, 256\]"):
                FilterBankConfig(channels=1, block_state=block)

    @pytest.mark.parametrize("widths", [(0, 1), (1, 0)], ids=["input", "output"])
    def test_width_below_one_rejected(self, widths):
        with pytest.raises(ValueError, match="widths must be >= 1"):
            FilterBankConfig(channels=1, block_state=4, input_width=widths[0],
                             output_width=widths[1])

    @pytest.mark.parametrize("delta", [(0.1,), (0.1, 0.2, 0.3)], ids=["short", "long"])
    def test_timestep_count_must_match_channels(self, delta):
        with pytest.raises(ValueError, match="expected 2 timesteps"):
            FilterBankConfig(channels=2, block_state=4, delta=delta)


class TestLayerForward:
    @staticmethod
    def small_layer(channels=2, block=3, width=1, out_width=1, seed=0):
        rng = np.random.default_rng(seed)
        config = FilterBankConfig(channels=channels, block_state=block,
                                  input_width=width, output_width=out_width,
                                  delta=0.05)
        inits = build_filter_bank(config)
        ssms = [zoh_discretize(init, d) for init, d in zip(inits, config.delta)]
        total = config.total_state
        weights = LayerWeights(
            c_tilde=(rng.standard_normal((out_width, total))
                     + 1j * rng.standard_normal((out_width, total))),
            w_out=rng.standard_normal((out_width, out_width)),
            w_gate=rng.standard_normal((out_width, width)),
        )
        return config, weights, ssms

    def test_zero_input_zero_output(self):
        config, weights, ssms = self.small_layer()
        out = layer_forward(config, weights, ssms, SequenceBatch(np.zeros((16, 1))))
        assert np.all(out.values == 0.0)

    def test_zero_output_map(self):
        config, weights, ssms = self.small_layer()
        weights = LayerWeights(c_tilde=np.zeros_like(weights.c_tilde),
                               w_out=weights.w_out, w_gate=weights.w_gate)
        rng = np.random.default_rng(1)
        out = layer_forward(config, weights, ssms,
                            SequenceBatch(rng.standard_normal((16, 1))))
        assert np.all(out.values == 0.0)

    def test_gate_value_at_unit_preactivation(self):
        # silu(1) = sigmoid(1); with W_gate = [[1]] and unit input the gate
        # multiplies the mixed output by exactly that scalar.  A unit input
        # drives the state to x_k = b_bar (1 - lambda_bar^(k+1)) / (1 - lambda_bar)
        config, weights, ssms = self.small_layer()
        weights = LayerWeights(c_tilde=weights.c_tilde, w_out=np.eye(1),
                               w_gate=np.eye(1))
        z_in = SequenceBatch(np.ones((8, 1)))
        out = layer_forward(config, weights, ssms, z_in)
        lam = np.concatenate([s.lambda_bar for s in ssms])
        b = np.concatenate([s.b_bar[:, 0] for s in ssms])
        states = b * (1.0 - lam ** np.arange(1, 9)[:, None]) / (1.0 - lam)
        y = (states @ weights.c_tilde.T).real
        expected = y * (1.0 / (1.0 + math.exp(-1.0)))
        assert out.values == pytest.approx(expected, rel=1e-12)
        assert _layer_reference(ssms, z_in, weights) == pytest.approx(expected, rel=1e-12)

    def test_matches_layer_reference(self):
        config, weights, ssms = self.small_layer(channels=3, width=2, out_width=2, seed=3)
        rng = np.random.default_rng(4)
        z_in = SequenceBatch(rng.standard_normal((64, 2)))
        out = layer_forward(config, weights, ssms, z_in)
        reference = _layer_reference(ssms, z_in, weights)
        assert out.values == pytest.approx(reference, abs=1e-10)

    def test_per_step_path_removed(self):
        config, weights, ssms = self.small_layer()
        with pytest.raises(ValueError, match="per-step layer path"):
            layer_forward(config, weights, ssms, SequenceBatch(np.zeros((4, 1))), scan=False)

    def test_shape_mismatch(self, monkeypatch):
        config, weights, ssms = self.small_layer()
        with pytest.raises(ValueError):
            layer_forward(config, weights, ssms, SequenceBatch(np.zeros((4, 3))))
        with pytest.raises(ValueError):
            layer_forward(config, weights, ssms[:1], SequenceBatch(np.zeros((4, 1))))
        # the output map is checked before any channel runs, with the same
        # bank's spectrum kept from a call on valid weights
        layer_forward(config, weights, ssms, SequenceBatch(np.zeros((4, 1))))
        monkeypatch.setattr("fractalssm.ssm._output_kernel",
                            lambda *_: pytest.fail("channels ran"))
        narrow = LayerWeights(c_tilde=weights.c_tilde[:, 1:], w_out=weights.w_out,
                              w_gate=weights.w_gate)
        with pytest.raises(ValueError, match="output map"):
            layer_forward(config, narrow, ssms, SequenceBatch(np.zeros((4, 1))))
        # a (2, 1) gate would broadcast to two output columns without an error
        bad_mixes = [("output mix", np.ones((1, 3)), weights.w_gate),
                     ("output mix", np.ones((3, 3)), weights.w_gate),
                     ("gate", weights.w_out, np.ones((2, 1))),
                     ("gate", weights.w_out, np.ones((1, 2)))]
        for message, w_out, w_gate in bad_mixes:
            bad = LayerWeights(c_tilde=weights.c_tilde, w_out=w_out, w_gate=w_gate)
            with pytest.raises(ValueError, match=message):
                layer_forward(config, bad, ssms, SequenceBatch(np.zeros((4, 1))))

    def test_feedthrough_matrix(self):
        config, weights, ssms = self.small_layer()
        weights = LayerWeights(c_tilde=np.zeros_like(weights.c_tilde),
                               w_out=np.eye(1), w_gate=np.eye(1),
                               d=np.array([[2.0]]))
        z_in = SequenceBatch(np.ones((4, 1)))
        out = layer_forward(config, weights, ssms, z_in)
        assert out.values == pytest.approx(2.0 / (1.0 + math.exp(-1.0)) * np.ones((4, 1)))


class TestOutputKernel:
    """_output_kernel against Re sum_n c_n b_n lambda_n^j written out state by state."""

    @staticmethod
    def oracle(ssms, c_tilde, taps):
        expected = np.zeros((taps, c_tilde.shape[0], ssms[0].b_bar.shape[1]))
        column = 0
        for ssm in ssms:
            for lam, b in zip(ssm.lambda_bar, ssm.b_bar):
                powers = lam ** np.arange(taps)
                expected += (powers[:, None, None] * c_tilde[None, :, column, None]
                             * b[None, None, :]).real
                column += 1
        return expected

    @staticmethod
    def assert_matches(ssms, c_tilde, length, taps):
        kernel = bank_kernel(ssms, c_tilde, length)
        expected = TestOutputKernel.oracle(ssms, c_tilde, taps)
        assert kernel.shape == expected.shape
        # a state may stop at its own cut, dropping at most eps |c_n b_n| from each tap
        b_bar = np.concatenate([ssm.b_bar for ssm in ssms])
        dropped = np.finfo(float).eps * np.einsum("on,ni->oi", np.abs(c_tilde), np.abs(b_bar))
        rounding = 1e-13 * np.max(np.abs(expected))
        assert np.all(np.abs(kernel - expected) <= dropped + rounding)

    def test_three_channels_two_inputs_three_outputs(self):
        rng = np.random.default_rng(21)
        ssms = [random_system(rng, 4, width=2) for _ in range(3)]
        c_tilde = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
        radius = max(np.max(np.abs(s.lambda_bar)) for s in ssms)
        taps = math.ceil(math.log(np.finfo(float).eps) / math.log(radius))
        assert taps < 5000
        self.assert_matches(ssms, c_tilde, 5000, taps)

    def test_non_decaying_bank_keeps_every_tap(self):
        rng = np.random.default_rng(22)
        ssms = [DiscreteDiagonalSSM(
            lambda_bar=np.exp(1j * rng.uniform(-np.pi, np.pi, size=3)),
            b_bar=rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)), delta=1.0)
            for _ in range(2)]
        c_tilde = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        self.assert_matches(ssms, c_tilde, 257, 257)

    def test_fast_and_slow_states_mixed(self):
        # the r = 0.999 states set 36024 taps; the r = 0.5 states stop at their
        # own cut, 53 taps, long before the powers would underflow
        rng = np.random.default_rng(24)
        radius = np.array([0.999, 0.5, 0.5, 0.999, 0.5, 0.999])
        lambda_bar = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, size=6))
        ssms = [DiscreteDiagonalSSM(
            lambda_bar=lambda_bar[3 * k:3 * k + 3],
            b_bar=rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)), delta=1.0)
            for k in range(2)]
        c_tilde = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        taps = math.ceil(math.log(np.finfo(float).eps) / math.log(0.999))
        self.assert_matches(ssms, c_tilde, 40000, taps)

    @pytest.mark.parametrize("bank", ["filter-bank-4x32", "random-64"])
    def test_no_power_underflows(self, bank):
        # fast states decay below 1e-308 long before the slowest one reaches eps
        rng = np.random.default_rng(25)
        if bank == "random-64":
            ssms = [_random_system(rng, 64)]
        else:
            config = FilterBankConfig(channels=4, block_state=32, delta=0.01)
            ssms = [zoh_discretize(init, 0.01) for init in build_filter_bank(config)]
        total = sum(ssm.lambda_bar.shape[0] for ssm in ssms)
        c_tilde = rng.standard_normal((1, total)) + 1j * rng.standard_normal((1, total))
        with np.errstate(under="raise"):
            kernel = bank_kernel(ssms, c_tilde, 10000)
        assert kernel.shape[0] > 2000 and np.all(np.isfinite(kernel))

    @staticmethod
    def kept_taps(ssms, c, length):
        """The kernel's taps and the taps each state keeps, with C = diag(c):
        column n of the kernel is state n alone, zero from its last kept tap on."""
        kernel = bank_kernel(ssms, np.diag(c), length)[:, :, 0]
        kept = np.array([np.flatnonzero(column)[-1] + 1 for column in kernel.T])
        return kernel.shape[0], kept

    @staticmethod
    def stream_bank():
        # the 4 x 8 bank at delta = 0.01 (perfbench's `stream`)
        config = FilterBankConfig(channels=4, block_state=8, delta=0.01)
        return [zoh_discretize(init, 0.01) for init in build_filter_bank(config)]

    def test_stream_bank_truncation_bound(self):
        # one output per state with c_n = conj(b_n) / |b_n|: a state's taps are
        # zero from its `stop` on, so it drops at most |b_n| r_n^stop / (1 - r_n)
        ssms = self.stream_bank()
        b_bar = np.concatenate([ssm.b_bar for ssm in ssms])[:, 0]
        b, r = np.abs(b_bar), np.abs(np.concatenate([ssm.lambda_bar for ssm in ssms]))
        taps, stop = self.kept_taps(ssms, np.conj(b_bar) / b, 2 ** 18)
        assert taps == 3605
        dropped = b * r ** stop / (1 - r)
        eps = np.finfo(float).eps
        own = np.ceil(np.log(eps * (1 - r)) / np.log(r))
        capped = own > taps
        assert np.all(stop[capped] == taps)
        assert np.all(dropped[~capped] <= (1 + 1e-9) * eps * b[~capped])
        assert np.all(dropped[capped] <= eps / (1 - r[capped]) * b[capped])
        # the slowest states, at r = e^-0.01, would stop at 4066 taps: capped
        # at 3605 they drop about 100 eps |b_n|, beyond an uncapped state's eps
        slowest = r == np.max(r)
        assert np.all(own[slowest] == 4066) and np.all(capped[slowest])
        ratio = dropped[slowest] / (eps * b[slowest])
        assert np.all((99 < ratio) & (ratio < 100))

    @pytest.mark.parametrize("bank", ["stream-4x8", "random-64", "non-decaying"])
    def test_dropped_tail_within_stated_bound(self, bank):
        # the bound `_output_kernel` states: a state that keeps t_n taps drops
        # sum_{j >= t_n} |c_n b_bar_n| r^j = |c_n b_bar_n| r^t_n / (1 - r), at most
        # eps |c_n b_bar_n| where its own cut stops it and eps / (1 - r) |c_n b_bar_n|
        # where it is capped at taps
        rng = np.random.default_rng(27)
        if bank == "stream-4x8":
            ssms, length = self.stream_bank(), 2 ** 18
        elif bank == "random-64":
            ssm = _random_system(rng, 64)
            ssms = [DiscreteDiagonalSSM(lambda_bar=np.concatenate([[0.995], ssm.lambda_bar[1:]]),
                                        b_bar=ssm.b_bar, delta=1.0)]
            length = 10000
        else:
            # two states of modulus exactly 1 keep every tap of the 5000 steps,
            # so the output sees no truncation; the others stop at their own cut
            lambda_bar = np.array([1.0, 1j, 0.9, -0.5, 0.99j, 0.2])
            ssms = [DiscreteDiagonalSSM(
                lambda_bar=lambda_bar[3 * k:3 * k + 3],
                b_bar=rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)), delta=1.0)
                for k in range(2)]
            length = 5000
        lam = np.concatenate([ssm.lambda_bar for ssm in ssms])
        b_bar = np.concatenate([ssm.b_bar for ssm in ssms])[:, 0]
        c = rng.standard_normal(lam.size) + 1j * rng.standard_normal(lam.size)
        taps, kept = self.kept_taps(ssms, c, length)
        r, cb = np.abs(lam), np.abs(c * b_bar)
        decaying = r < 1.0
        assert np.all(kept[~decaying] == taps) and (taps == length) == (not np.all(decaying))
        r, cb, kept = r[decaying], cb[decaying], kept[decaying]
        eps = np.finfo(float).eps
        own = np.ceil(np.log(eps * (1 - r)) / np.log(r))
        capped = own > taps
        # a state keeps at least its own cut: from the block of B = ceil(sqrt(taps))
        # taps that holds the cut on, its powers are zero
        assert np.all((own[~capped] <= kept[~capped]) & (kept[~capped] <= taps))
        assert np.all(kept[capped] == taps)
        dropped = cb * r ** kept / (1 - r)
        assert np.all(dropped[~capped] <= (1 + 1e-9) * eps * cb[~capped])
        assert np.all(dropped[capped] <= (1 + 1e-9) * eps / (1 - r[capped]) * cb[capped])
        assert np.any(capped) == (bank != "non-decaying")

    def test_builds_no_power_table(self):
        # one 64-state system at 7191 taps: the taps x n table of powers alone
        # would take 7.4 MB
        rng = np.random.default_rng(26)
        ssm = _random_system(rng, 64)
        ssm = DiscreteDiagonalSSM(lambda_bar=np.concatenate([[0.995], ssm.lambda_bar[1:]]),
                                  b_bar=ssm.b_bar, delta=1.0)
        c_tilde = rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
        tracemalloc.start()
        try:
            kernel = bank_kernel([ssm], c_tilde, 10000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        taps = kernel.shape[0]
        assert taps == 7191
        assert peak < 0.25 * taps * 64 * 16


class TestBlockLength:
    """_block_length's transform lengths against the rule written out on the table."""

    @staticmethod
    def rule(taps, length):
        need = length + taps - 1
        several = [(cost / (s - taps + 1), s) for s, cost in _FFT_LENGTHS if s >= 2 * taps]
        if not several:
            return 1 << (min(4 * taps, need) - 1).bit_length()
        block = min(several)[1]
        return min([s for s in _FFT_SIZES if need <= s <= block], default=block)

    def test_table_is_an_ascending_five_smooth_frontier(self):
        sizes, costs = zip(*_FFT_LENGTHS)
        assert sizes == _FFT_SIZES and list(sizes) == sorted(set(sizes))
        for size in sizes:
            for p in (2, 3, 5):
                while size % p == 0:
                    size //= p
            assert size == 1
        # the cost frontier: a length costing no less than a longer one is never worth it
        assert all(c > 0 for c in costs) and all(a < b for a, b in zip(costs, costs[1:]))

    @settings(max_examples=300, deadline=None)
    @given(taps=st.integers(1, 2 * 10 ** 5), length=st.integers(1, 4 * 10 ** 5))
    def test_pure_and_never_below_taps(self, taps, length):
        size = _block_length(taps, length)
        assert size == _block_length(taps, length) == self.rule(taps, length)
        assert size >= taps
        if size < length + taps - 1:   # several blocks: the kernel alone sets their length
            assert size >= 2 * taps
            assert size == _block_length(taps, 10 ** 7)


# the scan-parametrized cases pass scan=True, as perfbench's `stream` workload
# does, or leave the keyword at its default: both run the one layer path
SCAN_KEYWORD = pytest.mark.parametrize("scan", [{"scan": True}, {}], ids=["True", "False"])


class TestConvolutionPath:
    """The kernel-convolution layer against verify's chunked reference."""

    @staticmethod
    def assert_paths_agree(config, weights, ssms, z_in):
        fast = layer_forward(config, weights, ssms, z_in).values
        reference = _layer_reference(ssms, z_in, weights)
        assert fast.shape == reference.shape == (z_in.length, config.output_width)
        scale = max(np.max(np.abs(reference)), 1e-300)
        assert np.max(np.abs(fast - reference)) / scale < 1e-10

    @staticmethod
    def layer(ssms, width=1, out_width=1, seed=0, d=0.0):
        block = ssms[0].lambda_bar.shape[0]
        config = FilterBankConfig(channels=len(ssms), block_state=block,
                                  input_width=width, output_width=out_width,
                                  delta=ssms[0].delta)
        rng = np.random.default_rng(seed)
        total = config.total_state
        weights = LayerWeights(
            c_tilde=(rng.standard_normal((out_width, total))
                     + 1j * rng.standard_normal((out_width, total))),
            w_out=rng.standard_normal((out_width, out_width)),
            w_gate=rng.standard_normal((out_width, width)), d=d)
        return config, weights

    @staticmethod
    def bank(delta, channels=2, block=4, width=1):
        config = FilterBankConfig(channels=channels, block_state=block,
                                  input_width=width, delta=delta)
        return [zoh_discretize(init, d)
                for init, d in zip(build_filter_bank(config), config.delta)]

    @staticmethod
    def taps(ssms, length):
        c_tilde = np.ones((1, sum(s.lambda_bar.shape[0] for s in ssms)))
        return bank_kernel(ssms, c_tilde, length).shape[0]

    def test_all_zero_poles_keep_one_tap(self):
        rng = np.random.default_rng(23)
        ssms = [DiscreteDiagonalSSM(
            lambda_bar=np.zeros(3, dtype=complex),
            b_bar=rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)), delta=1.0)
            for _ in range(2)]
        assert self.taps(ssms, 500) == 1
        config, weights = self.layer(ssms, d=0.5)
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((500, 1))))

    def test_truncated_multi_width(self):
        ssms = self.bank(0.05, width=2)
        length = 3000
        radius = max(np.max(np.abs(s.lambda_bar)) for s in ssms)
        taps = math.ceil(math.log(np.finfo(float).eps) / math.log(radius))
        assert self.taps(ssms, length) == taps < length
        rng = np.random.default_rng(11)
        config, weights = self.layer(ssms, width=2, out_width=3, seed=1,
                                     d=rng.standard_normal((3, 2)))
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((length, 2))))

    @pytest.mark.parametrize("length", [1, 2, 50])
    def test_shorter_than_kernel(self, length):
        ssms = self.bank(0.05)
        assert self.taps(ssms, length) == length
        config, weights = self.layer(ssms, seed=length)
        rng = np.random.default_rng(length)
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((length, 1))))

    def test_untruncated_slow_decay(self):
        ssms = self.bank(1e-5)
        length = 4096
        assert self.taps(ssms, length) == length
        config, weights = self.layer(ssms, seed=2)
        rng = np.random.default_rng(2)
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((length, 1))))

    def test_hand_built_near_unit_modulus(self):
        rng = np.random.default_rng(3)
        phases = rng.uniform(-np.pi, np.pi, size=(2, 3))
        ssms = [DiscreteDiagonalSSM(lambda_bar=0.9999 * np.exp(1j * p),
                                    b_bar=rng.standard_normal((3, 1))
                                    + 1j * rng.standard_normal((3, 1)), delta=1.0)
                for p in phases]
        config, weights = self.layer(ssms, seed=3, d=0.5)
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((20000, 1))))

    @pytest.fixture
    def inverse_batches(self, monkeypatch):
        """Shapes (out, blocks, frequencies) of the batched inverse FFTs that run."""
        shapes = []
        irfft = np.fft.irfft

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return irfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)
        return shapes

    def block_hop(self, ssms, taps, inverse_batches):
        # a long run fixes the block length, which depends on the kernel alone
        config, weights = self.layer(ssms, width=ssms[0].b_bar.shape[1])
        layer_forward(config, weights, ssms,
                      SequenceBatch(np.zeros((64 * taps, config.input_width))))
        size = 2 * (inverse_batches.pop()[-1] - 1)
        return size - taps + 1

    @pytest.mark.parametrize("length", [3000, 1000])
    def test_single_block_shortest_table_length(self, length, inverse_batches):
        # length + taps - 1 fits in the kernel's block: one block at the
        # shortest table length that holds it (4000 and 1728 in the committed table)
        ssms = self.bank(0.05, width=2)
        assert self.taps(ssms, length) == 721
        size = min(s for s in _FFT_SIZES if s >= length + 720)
        rng = np.random.default_rng(16)
        config, weights = self.layer(ssms, width=2, out_width=3, seed=8,
                                     d=rng.standard_normal((3, 2)))
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((length, 2))))
        assert inverse_batches == [(3, 1, size // 2 + 1)]

    @pytest.mark.parametrize("extra, blocks", [(0, 1), (1, 2)])
    def test_one_or_two_blocks_at_the_boundary(self, extra, blocks, inverse_batches):
        # length + taps - 1 = size fills the kernel's block exactly; one more
        # step takes a second block of the same length
        ssms = self.bank(0.2, width=2)
        taps = self.taps(ssms, 10 ** 6)
        hop = self.block_hop(ssms, taps, inverse_batches)
        size = hop + taps - 1
        rng = np.random.default_rng(20 + extra)
        config, weights = self.layer(ssms, width=2, out_width=3, seed=12 + extra,
                                     d=rng.standard_normal((3, 2)))
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((hop + extra, 2))))
        assert inverse_batches == [(3, blocks, size // 2 + 1)]

    def test_power_of_two_past_the_table(self, inverse_batches):
        # a bank at |lambda_bar| = 1 keeps all its taps, so on one step more than
        # the table's longest length 2 taps lie past the table: one block at the
        # smallest power of two >= length + taps - 1
        rng = np.random.default_rng(19)
        ssms = [DiscreteDiagonalSSM(lambda_bar=np.exp(1j * rng.uniform(-np.pi, np.pi, 2)),
                                    b_bar=rng.standard_normal((2, 1))
                                    + 1j * rng.standard_normal((2, 1)), delta=1.0)]
        length = _FFT_SIZES[-1] + 1
        assert self.taps(ssms, length) == length
        size = 1 << (2 * length - 2).bit_length()
        config, weights = self.layer(ssms, seed=19, d=0.3)
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((length, 1))))
        assert inverse_batches == [(1, 1, size // 2 + 1)]

    def test_many_blocks_multi_width(self, inverse_batches):
        ssms = self.bank(0.2, width=2)
        taps = self.taps(ssms, 10 ** 6)
        hop = self.block_hop(ssms, taps, inverse_batches)
        length = 5 * hop + hop // 3
        assert length > 20 * taps
        rng = np.random.default_rng(12)
        config, weights = self.layer(ssms, width=2, out_width=3, seed=4,
                                     d=rng.standard_normal((3, 2)))
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((length, 2))))
        assert [shape[:2] for shape in inverse_batches] == [(3, 6)]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_many_blocks_scalar_feedthrough(self, extra, inverse_batches):
        ssms = self.bank(0.2)
        taps = self.taps(ssms, 10 ** 6)
        hop = self.block_hop(ssms, taps, inverse_batches)
        length = 4 * hop + extra
        config, weights = self.layer(ssms, seed=5 + extra, d=-0.7)
        rng = np.random.default_rng(13 + extra)
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((length, 1))))
        assert [shape[1] for shape in inverse_batches] == [4 + extra]

    @pytest.mark.parametrize("batch", [1, 3])
    def test_blocks_split_across_batches(self, batch, inverse_batches, monkeypatch):
        # 8 blocks through batched transforms of `batch` blocks, the last one short
        ssms = self.bank(0.2, width=2)
        taps = self.taps(ssms, 10 ** 6)
        hop = self.block_hop(ssms, taps, inverse_batches)
        size = hop + taps - 1
        monkeypatch.setattr("fractalssm.ssm._BATCH_POINTS", batch * size)
        inverse_batches.clear()
        rng = np.random.default_rng(14)
        config, weights = self.layer(ssms, width=2, out_width=3, seed=6,
                                     d=rng.standard_normal((3, 2)))
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((7 * hop + hop // 2, 2))))
        counts = [batch] * (8 // batch) + [8 % batch] * (8 % batch > 0)
        assert [shape[:2] for shape in inverse_batches] == [(3, c) for c in counts]

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_gate_across_batch_edges(self, extra, inverse_batches, monkeypatch):
        # batches of 2 blocks over 3 batches' worth of steps, give or take one:
        # the first batch reaches before step 0, the middle one reads u in place,
        # and the last one runs past the end (extra = -1), ends on it (0) or is
        # followed by a one-block batch (1); each gates its own rows
        ssms = self.bank(0.2, width=2)
        taps = self.taps(ssms, 10 ** 6)
        hop = self.block_hop(ssms, taps, inverse_batches)
        monkeypatch.setattr("fractalssm.ssm._BATCH_POINTS", 2 * (hop + taps - 1))
        inverse_batches.clear()
        rng = np.random.default_rng(18 + extra)
        config, weights = self.layer(ssms, width=2, out_width=3, seed=11 + extra,
                                     d=rng.standard_normal((3, 2)))
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((3 * 2 * hop + extra, 2))))
        counts = [2, 2, 2] + [1] * (extra > 0)
        assert [shape[:2] for shape in inverse_batches] == [(3, c) for c in counts]

    @SCAN_KEYWORD
    def test_gate_mixes_every_input(self, scan):
        # with C = 0 the layer is (W_out D z) * silu(W_gate z), written out here
        ssms = self.bank(0.05, width=2)
        rng = np.random.default_rng(15)
        config, weights = self.layer(ssms, width=2, out_width=3, seed=7,
                                     d=rng.standard_normal((3, 2)))
        weights = LayerWeights(c_tilde=np.zeros_like(weights.c_tilde), w_out=weights.w_out,
                               w_gate=weights.w_gate, d=weights.d)
        z = rng.standard_normal((40, 2))
        gate = z @ weights.w_gate.T
        expected = (z @ weights.d.T @ weights.w_out.T) * gate / (1.0 + np.exp(-gate))
        out = layer_forward(config, weights, ssms, SequenceBatch(z), **scan).values
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    @SCAN_KEYWORD
    def test_scalar_feedthrough_widths(self, scan):
        ssms = self.bank(0.05, width=2)
        config, weights = self.layer(ssms, width=2, out_width=3, d=0.5)
        z_in = SequenceBatch(np.ones((16, 2)))
        with pytest.raises(ValueError, match="scalar feedthrough requires matching widths"):
            layer_forward(config, weights, ssms, z_in, **scan)
        config, weights = self.layer(ssms, width=2, out_width=3, d=0.0)
        assert layer_forward(config, weights, ssms, z_in, **scan).values.shape == (16, 3)

    def test_scalar_feedthrough_two_by_two(self):
        # a nonzero scalar D stands for D I, in the layer and in the reference
        ssms = self.bank(0.05, width=2)
        rng = np.random.default_rng(17)
        z_in = SequenceBatch(rng.standard_normal((300, 2)))
        config, weights = self.layer(ssms, width=2, out_width=2, seed=9, d=-0.8)
        self.assert_paths_agree(config, weights, ssms, z_in)
        identity = LayerWeights(c_tilde=weights.c_tilde, w_out=weights.w_out,
                                w_gate=weights.w_gate, d=-0.8 * np.eye(2))
        assert np.array_equal(layer_forward(config, weights, ssms, z_in).values,
                              layer_forward(config, identity, ssms, z_in).values)

    @SCAN_KEYWORD
    def test_one_finiteness_pass(self, scan, monkeypatch):
        ssms = self.bank(0.05, width=2)
        config, weights = self.layer(ssms, width=2, out_width=3, seed=10)
        z_in = SequenceBatch(np.ones((64, 2)))
        passes = []
        isfinite = np.isfinite

        def spy(x, *args, **kwargs):
            passes.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        layer_forward(config, weights, ssms, z_in, **scan)
        assert passes == [(64, 3)]

    @SCAN_KEYWORD
    def test_feedthrough_shape_checked(self, scan):
        # a (3, 1) matrix would broadcast silently over the folded kernel's two inputs
        ssms = self.bank(0.05, width=2)
        config, weights = self.layer(ssms, width=2, out_width=3, d=np.ones((3, 1)))
        with pytest.raises(ValueError, match="feedthrough shape"):
            layer_forward(config, weights, ssms, SequenceBatch(np.ones((16, 2))), **scan)

    @SCAN_KEYWORD
    def test_growing_system_raises(self, scan):
        ssms = [DiscreteDiagonalSSM(lambda_bar=np.array([1.5 + 0j, 0.5 + 0j]),
                                    b_bar=np.ones((2, 1), dtype=complex), delta=1.0)]
        config, weights = self.layer(ssms)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError):
                layer_forward(config, weights, ssms, SequenceBatch(np.ones((4096, 1))),
                              **scan)

    @SCAN_KEYWORD
    def test_zero_length(self, scan):
        ssms = self.bank(0.05, width=2)
        config, weights = self.layer(ssms, width=2, out_width=3)
        out = layer_forward(config, weights, ssms, SequenceBatch(np.zeros((0, 2))), **scan)
        assert out.values.shape == (0, 3)

    def test_channel_shape_mismatch(self):
        ssms = self.bank(0.05)
        config, weights = self.layer(ssms)
        wide = FilterBankConfig(channels=2, block_state=4, input_width=2, delta=0.05)
        for bad_config in (wide, FilterBankConfig(channels=2, block_state=3, delta=0.05)):
            with pytest.raises(ValueError, match="channel systems"):
                layer_forward(bad_config, weights, ssms,
                              SequenceBatch(np.zeros((4, bad_config.input_width))))


class TestSpectrumMemo:
    """The kernel step's one kept spectrum: the same bank reuses it, any other recomputes it."""

    @staticmethod
    def cleared(config, weights, ssms, z_in):
        """The layer's output with no spectrum kept, so its kernel is computed afresh."""
        ssm_mod._spectrum_memo[0] = None
        return layer_forward(config, weights, ssms, z_in).values

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The taps of every `_output_kernel` call, in order."""
        taps_seen = []
        output_kernel = ssm_mod._output_kernel

        def spy(poles, residues, taps):
            taps_seen.append(taps)
            return output_kernel(poles, residues, taps)

        monkeypatch.setattr(ssm_mod, "_output_kernel", spy)
        return taps_seen

    @staticmethod
    def layer(seed, channels=2, delta=0.05):
        """A 2-in, 3-out layer with a matrix feedthrough on a bank of 721 taps at delta 0.05."""
        ssms = TestConvolutionPath.bank(delta, channels=channels, width=2)
        rng = np.random.default_rng(seed)
        config, weights = TestConvolutionPath.layer(ssms, width=2, out_width=3, seed=seed,
                                                    d=rng.standard_normal((3, 2)))
        return config, weights, ssms

    def test_repeated_call_reuses_the_spectrum(self, kernel_calls):
        config, weights, ssms = self.layer(30)
        rng = np.random.default_rng(30)
        z_in = SequenceBatch(rng.standard_normal((3000, 2)))
        first = self.cleared(config, weights, ssms, z_in)
        assert np.array_equal(layer_forward(config, weights, ssms, z_in).values, first)
        # a fresh input of the same length reuses it too
        fresh = SequenceBatch(rng.standard_normal((3000, 2)))
        out = layer_forward(config, weights, ssms, fresh).values
        assert kernel_calls == [721]
        assert np.array_equal(out, self.cleared(config, weights, ssms, fresh))

    @pytest.mark.parametrize("edit", ["lambda_bar", "b_bar", "c_tilde", "w_out", "d"])
    def test_in_place_edit_recomputes(self, edit, kernel_calls):
        config, weights, ssms = self.layer(31)
        z_in = SequenceBatch(np.random.default_rng(31).standard_normal((3000, 2)))
        before = self.cleared(config, weights, ssms, z_in)
        array = {"lambda_bar": ssms[1].lambda_bar, "b_bar": ssms[0].b_bar,
                 "c_tilde": weights.c_tilde, "w_out": weights.w_out, "d": weights.d}[edit]
        # a phase turn keeps every radius, so the taps and block length stay
        array.flat[1] *= np.exp(0.3j) if edit == "lambda_bar" else 0.5
        after = layer_forward(config, weights, ssms, z_in).values
        assert kernel_calls == [721, 721]
        assert not np.array_equal(after, before)
        assert np.array_equal(after, self.cleared(config, weights, ssms, z_in))

    def test_two_banks_in_turn(self, kernel_calls):
        rng = np.random.default_rng(32)
        layers = [self.layer(32), self.layer(33, channels=3, delta=0.04)]
        inputs = [SequenceBatch(rng.standard_normal((3000, 2))) for _ in layers]
        expected = [self.cleared(*layer, z_in) for layer, z_in in zip(layers, inputs)]
        for _ in range(2):
            for layer, z_in, out in zip(layers, inputs, expected):
                assert np.array_equal(layer_forward(*layer, z_in).values, out)
        assert len(kernel_calls) == 6

    def test_equal_bytes_in_other_shapes_do_not_collide(self):
        # one channel of 4 states and two of 2 whose lambda_bar, b_bar pairs
        # run through the same 8 values in the same order: joined channel by
        # channel, the arrays' bytes are equal, but the systems differ, and
        # their stacked lambda_bar and b_bar differ too
        rng = np.random.default_rng(34)
        values = rng.uniform(0.3, 0.9, 8) * np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
        one = [DiscreteDiagonalSSM(lambda_bar=values[:4], b_bar=values[4:, None], delta=1.0)]
        two = [DiscreteDiagonalSSM(lambda_bar=values[4 * k:4 * k + 2],
                                   b_bar=values[4 * k + 2:4 * k + 4, None], delta=1.0)
               for k in range(2)]
        assert b"".join(a.tobytes() for s in one for a in (s.lambda_bar, s.b_bar)) == \
            b"".join(a.tobytes() for s in two for a in (s.lambda_bar, s.b_bar))
        weights = LayerWeights(c_tilde=rng.standard_normal((1, 4)) + 0j, w_out=np.eye(1),
                               w_gate=np.eye(1))
        configs = [FilterBankConfig(channels=1, block_state=4, delta=1.0),
                   FilterBankConfig(channels=2, block_state=2, delta=1.0)]
        z_in = SequenceBatch(rng.standard_normal((200, 1)))
        expected = [self.cleared(config, weights, ssms, z_in)
                    for config, ssms in zip(configs, (one, two))]
        assert not np.array_equal(*expected)
        for config, ssms, out in zip(configs, (one, two), expected):
            assert np.array_equal(layer_forward(config, weights, ssms, z_in).values, out)

    def test_restacked_bank_reuses_the_spectrum(self, kernel_calls):
        # a bank of two channels of 2 states, and the same 4 states as one
        # channel: the kernel step stacks both to the same lambda_bar and b_bar
        two = TestConvolutionPath.bank(0.05, channels=2, block=2, width=2)
        one = [DiscreteDiagonalSSM(lambda_bar=np.concatenate([s.lambda_bar for s in two]),
                                   b_bar=np.concatenate([s.b_bar for s in two]), delta=0.05)]
        rng = np.random.default_rng(38)
        config_two, weights = TestConvolutionPath.layer(two, width=2, out_width=3, seed=38,
                                                        d=rng.standard_normal((3, 2)))
        config_one = FilterBankConfig(channels=1, block_state=4, input_width=2,
                                      output_width=3, delta=0.05)
        z_in = SequenceBatch(rng.standard_normal((3000, 2)))
        first = self.cleared(config_one, weights, one, z_in)
        out = layer_forward(config_two, weights, two, z_in).values
        assert len(kernel_calls) == 1
        assert np.array_equal(out, first)
        assert np.array_equal(out, self.cleared(config_two, weights, two, z_in))

    def test_lengths_below_and_above_the_taps(self, kernel_calls):
        # 700 and 720 steps keep all their taps, in one block of 1440 points
        # each; 3000 and 3001 steps keep 721 taps in one block of 4000, and
        # 100000 steps run several blocks of the kernel's length
        config, weights, ssms = self.layer(35)
        assert _block_length(700, 700) == _block_length(720, 720) == 1440
        rng = np.random.default_rng(35)
        inputs = {length: SequenceBatch(rng.standard_normal((length, 2)))
                  for length in (700, 720, 3000, 3001, 100000)}
        expected = {length: self.cleared(config, weights, ssms, z_in)
                    for length, z_in in inputs.items()}
        kernel_calls.clear()
        for length in (700, 720, 3000, 3001, 700, 100000, 3000):
            out = layer_forward(config, weights, ssms, inputs[length]).values
            assert np.array_equal(out, expected[length])
        # 3001 steps reuse the spectrum of 3000: the same taps and block length
        assert kernel_calls == [700, 720, 721, 700, 721, 721]

    def test_threads_share_the_kept_spectrum(self):
        # more threads than cores, switching often, two on each of two banks
        # of one block length: each hit must pair its own bank's key with its
        # spectrum, while the other bank's misses replace the entry
        rng = np.random.default_rng(36)
        layers = [self.layer(36), self.layer(37, channels=3, delta=0.04)]
        z_in = SequenceBatch(rng.standard_normal((3000, 2)))
        expected = [self.cleared(*layer, z_in) for layer in layers]
        wrong = []

        def worker(bank):
            for k in range(20):
                if not np.array_equal(layer_forward(*layers[bank], z_in).values,
                                      expected[bank]):
                    wrong.append((bank, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(bank,)) for bank in (0, 1, 0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_every_call_checks_finiteness(self, kernel_calls):
        ssms = [DiscreteDiagonalSSM(lambda_bar=np.array([1.5 + 0j, 0.5 + 0j]),
                                    b_bar=np.ones((2, 1), dtype=complex), delta=1.0)]
        config, weights = TestConvolutionPath.layer(ssms)
        ssm_mod._spectrum_memo[0] = None
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2):
                with pytest.raises(ArithmeticError):
                    layer_forward(config, weights, ssms, SequenceBatch(np.ones((4096, 1))))
        assert kernel_calls == [4096]   # the second call reuses the spectrum


class TestSequenceBatch:
    def test_one_dimensional_promotes(self):
        batch = SequenceBatch(np.arange(4.0))
        assert batch.values.shape == (4, 1)
        assert batch.length == 4
        assert batch.width == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SequenceBatch(np.array([[1.0], [np.nan]]))

    def test_three_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-d or 2-d"):
            SequenceBatch(np.zeros((2, 3, 1)))

    @pytest.mark.parametrize("values", [np.array([1.0, 2.0 + 0.5j]), np.zeros((3, 2), complex),
                                        [1.0, 2j]], ids=["array", "real-valued", "list"])
    def test_complex_rejected(self, values):
        # the float conversion would drop the imaginary part with only a warning
        with pytest.raises(ValueError, match="must be real"):
            SequenceBatch(values)


def silu(x: np.ndarray) -> np.ndarray:
    # the layer's gate with W_gate = [[1]] on one input column: 1.0 * x is x
    return _silu_gate(x[:, None], np.ones((1, 1)))[0]


def test_silu_values():
    y = silu(np.array([0.0, 1.0, -50.0]))
    assert y[0] == pytest.approx(0.0)
    assert y[1] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))
    assert y[2] == pytest.approx(0.0, abs=1e-20)


def test_silu_bit_for_bit_in_one_buffer():
    rng = np.random.default_rng(0)
    x = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, -745.0, -800.0, 710.0],
                        rng.standard_normal(1000), 30.0 * rng.standard_normal(1000)])
    kept = x.copy()
    with np.errstate(over="ignore"):
        expected = x * (1.0 / (1.0 + np.exp(-x)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = silu(x)
        column = silu(x[1:].reshape(-1, 2)[:, 1])
    assert np.array_equal(y, expected)
    assert np.array_equal(np.signbit(y), np.signbit(expected))
    assert np.array_equal(column, expected[1:].reshape(-1, 2)[:, 1])
    assert np.array_equal(x, kept) and np.array_equal(np.signbit(x), np.signbit(kept))


def test_silu_saturates_without_warning():
    # exp(-x) overflows below x = -709; the sigmoid there is exactly 0
    x = np.array([-1e308, -1000.0, -710.0, 710.0, 1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = silu(x)
    assert np.array_equal(y, [0.0, 0.0, 0.0, 710.0, 1000.0])

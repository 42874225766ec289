"""Discretization, recurrence execution, scan equivalence, gated layer."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalssm.spectral import SpectralInit, spectral_init
from fractalssm.ssm import (DiscreteDiagonalSSM, FilterBankConfig, LayerWeights,
                            SequenceBatch, _output_kernel, build_filter_bank, layer_forward,
                            recur_scan, recur_sequential, silu, zoh_discretize)


def toy_init(lam: complex) -> SpectralInit:
    return SpectralInit(alpha=0.0, n=1, eigenvalues=np.array([lam]),
                        v=np.eye(1), v_inv=np.eye(1),
                        b_tilde=np.array([[1.0 + 0.0j]]), cond_v=1.0)


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


class TestSequentialRecurrence:
    def test_zero_input(self):
        ssm = random_system(np.random.default_rng(0), 5)
        states = recur_sequential(ssm, SequenceBatch(np.zeros((12, 1))))
        assert np.all(states == 0)

    def test_single_step(self):
        ssm = random_system(np.random.default_rng(1), 4)
        u = SequenceBatch(np.array([[2.5]]))
        states = recur_sequential(ssm, u)
        assert states[0] == pytest.approx(2.5 * ssm.b_bar[:, 0])

    def test_impulse_response_closed_form(self):
        ssm = random_system(np.random.default_rng(2), 6)
        length = 40
        u = np.zeros((length, 1))
        u[0, 0] = 1.0
        states = recur_sequential(ssm, SequenceBatch(u))
        powers = ssm.lambda_bar[None, :] ** np.arange(length)[:, None]
        expected = powers * ssm.b_bar[:, 0]
        assert np.max(np.abs(states - expected)) < 1e-12

    def test_width_mismatch(self):
        ssm = random_system(np.random.default_rng(3), 4, width=2)
        with pytest.raises(ValueError):
            recur_sequential(ssm, SequenceBatch(np.zeros((4, 1))))

    def test_stability_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            ssm = random_system(rng, 8)
            u = SequenceBatch(rng.uniform(-1, 1, size=(500, 1)))
            states = recur_sequential(ssm, u)
            drive_max = np.max(np.abs(u.values @ ssm.b_bar.T), axis=0)
            bound = drive_max / (1.0 - np.abs(ssm.lambda_bar))
            assert np.all(np.max(np.abs(states), axis=0) <= bound * (1 + 1e-12))

    def test_linearity(self):
        rng = np.random.default_rng(5)
        ssm = random_system(rng, 6)
        u = rng.standard_normal((64, 1))
        v = rng.standard_normal((64, 1))
        a, b = 1.7, -0.4
        combo = recur_sequential(ssm, SequenceBatch(a * u + b * v))
        parts = (a * recur_sequential(ssm, SequenceBatch(u))
                 + b * recur_sequential(ssm, SequenceBatch(v)))
        scale = np.max(np.abs(parts))
        assert np.max(np.abs(combo - parts)) / scale < 1e-10


class TestScanEquivalence:
    @pytest.mark.parametrize("length", [1, 2, 3, 17, 256, 1000, 1024])
    def test_matches_sequential(self, length):
        rng = np.random.default_rng(length)
        ssm = random_system(rng, 8)
        u = SequenceBatch(rng.standard_normal((length, 1)))
        seq = recur_sequential(ssm, u)
        scan = recur_scan(ssm, u)
        scale = max(np.max(np.abs(seq)), 1e-300)
        assert np.max(np.abs(scan - seq)) / scale < 1e-10

    @pytest.mark.parametrize("length", [2049, 3072, 3073, 4096, 5000])
    def test_multi_chunk_matches_sequential(self, length):
        # three or more chunks, with and without padding; the slowest states
        # carry across every chunk boundary
        rng = np.random.default_rng(length)
        ssm = random_system(rng, 12, width=2)
        slow = np.array([0.999, 0.9995, 0.9999]) * np.exp(1j * np.array([0.0, 0.3, -2.0]))
        ssm = DiscreteDiagonalSSM(lambda_bar=np.concatenate([slow, ssm.lambda_bar[3:]]),
                                  b_bar=ssm.b_bar, delta=1.0)
        values = rng.standard_normal((length, 2))
        u = SequenceBatch(values.copy())
        seq = recur_sequential(ssm, u)
        scan = recur_scan(ssm, u)
        assert np.max(np.abs(scan - seq)) / np.max(np.abs(seq)) < 1e-12
        assert np.array_equal(u.values, values)

    def test_scan_holds_one_trajectory(self):
        rng = np.random.default_rng(5)
        ssm = random_system(rng, 64)
        u = SequenceBatch(rng.standard_normal((65536, 1)))
        tracemalloc.start()
        try:
            recur_scan(ssm, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 65536 * 64 * 16

    def test_zero_length(self):
        ssm = random_system(np.random.default_rng(7), 5, width=2)
        u = SequenceBatch(np.zeros((0, 2)))
        assert recur_sequential(ssm, u).shape == (0, 5)
        assert recur_scan(ssm, u).shape == (0, 5)

    def test_long_sequence(self):
        rng = np.random.default_rng(99)
        ssm = random_system(rng, 64)
        u = SequenceBatch(rng.standard_normal((65536, 1)))
        seq = recur_sequential(ssm, u)
        scan = recur_scan(ssm, u)
        scale = np.max(np.abs(seq))
        assert np.max(np.abs(scan - seq)) / scale < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 12), length=st.integers(1, 200), seed=st.integers(0, 10))
    def test_random_shapes(self, n, length, seed):
        rng = np.random.default_rng(seed)
        ssm = random_system(rng, n, width=2)
        u = SequenceBatch(rng.standard_normal((length, 2)))
        seq = recur_sequential(ssm, u)
        scan = recur_scan(ssm, u)
        scale = max(np.max(np.abs(seq)), 1e-300)
        assert np.max(np.abs(scan - seq)) / scale < 1e-10


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
            assert init.alpha == alpha
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
        # multiplies the mixed output by exactly that scalar
        config, weights, ssms = self.small_layer()
        weights = LayerWeights(c_tilde=weights.c_tilde, w_out=np.eye(1),
                               w_gate=np.eye(1))
        z_in = SequenceBatch(np.ones((8, 1)))
        out = layer_forward(config, weights, ssms, z_in)
        states = np.concatenate([recur_scan(s, z_in) for s in ssms], axis=1)
        y = (states @ weights.c_tilde.T).real
        expected = y * (1.0 / (1.0 + math.exp(-1.0)))
        assert out.values == pytest.approx(expected, rel=1e-12)

    def test_scan_and_sequential_paths_agree(self):
        config, weights, ssms = self.small_layer(channels=3, width=2, out_width=2, seed=3)
        rng = np.random.default_rng(4)
        z_in = SequenceBatch(rng.standard_normal((64, 2)))
        out_scan = layer_forward(config, weights, ssms, z_in, scan=True)
        out_seq = layer_forward(config, weights, ssms, z_in, scan=False)
        assert out_scan.values == pytest.approx(out_seq.values, abs=1e-10)

    def test_shape_mismatch(self, monkeypatch):
        config, weights, ssms = self.small_layer()
        with pytest.raises(ValueError):
            layer_forward(config, weights, ssms, SequenceBatch(np.zeros((4, 3))))
        with pytest.raises(ValueError):
            layer_forward(config, weights, ssms[:1], SequenceBatch(np.zeros((4, 1))))
        # the output map is checked before any channel runs, on either path
        for helper in ("_output_kernel", "recur_sequential"):
            monkeypatch.setattr(f"fractalssm.ssm.{helper}",
                                lambda *_: pytest.fail("channels ran"))
        narrow = LayerWeights(c_tilde=weights.c_tilde[:, 1:], w_out=weights.w_out,
                              w_gate=weights.w_gate)
        for scan in (True, False):
            with pytest.raises(ValueError, match="output map"):
                layer_forward(config, narrow, ssms, SequenceBatch(np.zeros((4, 1))), scan=scan)
        # a (2, 1) gate would broadcast to two output columns without an error
        bad_mixes = [("output mix", np.ones((1, 3)), weights.w_gate),
                     ("output mix", np.ones((3, 3)), weights.w_gate),
                     ("gate", weights.w_out, np.ones((2, 1))),
                     ("gate", weights.w_out, np.ones((1, 2)))]
        for message, w_out, w_gate in bad_mixes:
            bad = LayerWeights(c_tilde=weights.c_tilde, w_out=w_out, w_gate=w_gate)
            for scan in (True, False):
                with pytest.raises(ValueError, match=message):
                    layer_forward(config, bad, ssms, SequenceBatch(np.zeros((4, 1))), scan=scan)

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
        kernel = _output_kernel(ssms, c_tilde, length)
        expected = TestOutputKernel.oracle(ssms, c_tilde, taps)
        assert kernel.shape == expected.shape
        assert np.max(np.abs(kernel - expected)) <= 1e-13 * np.max(np.abs(expected))

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


class TestConvolutionPath:
    """The default kernel-convolution path against the per-step reference."""

    @staticmethod
    def assert_paths_agree(config, weights, ssms, z_in):
        fast = layer_forward(config, weights, ssms, z_in).values
        reference = layer_forward(config, weights, ssms, z_in, scan=False).values
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
        return _output_kernel(ssms, c_tilde, length).shape[0]

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

    @pytest.mark.parametrize("length, size", [(3000, 4096), (1000, 2048)])
    def test_single_block_power_of_two(self, length, size, inverse_batches):
        # min(4 * taps, length + taps - 1) rounded up to a power of two: one block
        ssms = self.bank(0.05, width=2)
        assert self.taps(ssms, length) == 721
        rng = np.random.default_rng(16)
        config, weights = self.layer(ssms, width=2, out_width=3, seed=8,
                                     d=rng.standard_normal((3, 2)))
        self.assert_paths_agree(config, weights, ssms,
                                SequenceBatch(rng.standard_normal((length, 2))))
        assert inverse_batches == [(3, 1, size // 2 + 1)]

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

    @pytest.mark.parametrize("scan", [True, False])
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
        out = layer_forward(config, weights, ssms, SequenceBatch(z), scan=scan).values
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("scan", [True, False])
    def test_scalar_feedthrough_widths(self, scan):
        ssms = self.bank(0.05, width=2)
        config, weights = self.layer(ssms, width=2, out_width=3, d=0.5)
        z_in = SequenceBatch(np.ones((16, 2)))
        with pytest.raises(ValueError, match="scalar feedthrough requires matching widths"):
            layer_forward(config, weights, ssms, z_in, scan=scan)
        config, weights = self.layer(ssms, width=2, out_width=3, d=0.0)
        assert layer_forward(config, weights, ssms, z_in, scan=scan).values.shape == (16, 3)

    def test_scalar_feedthrough_two_by_two(self):
        # a nonzero scalar D stands for D I on both paths
        ssms = self.bank(0.05, width=2)
        rng = np.random.default_rng(17)
        z_in = SequenceBatch(rng.standard_normal((300, 2)))
        config, weights = self.layer(ssms, width=2, out_width=2, seed=9, d=-0.8)
        self.assert_paths_agree(config, weights, ssms, z_in)
        identity = LayerWeights(c_tilde=weights.c_tilde, w_out=weights.w_out,
                                w_gate=weights.w_gate, d=-0.8 * np.eye(2))
        assert np.array_equal(layer_forward(config, weights, ssms, z_in).values,
                              layer_forward(config, identity, ssms, z_in).values)

    @pytest.mark.parametrize("scan", [True, False])
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
        layer_forward(config, weights, ssms, z_in, scan=scan)
        assert passes == [(64, 3)]

    @pytest.mark.parametrize("scan", [True, False])
    def test_feedthrough_shape_checked(self, scan):
        # a (3, 1) matrix would broadcast silently over the folded kernel's two inputs
        ssms = self.bank(0.05, width=2)
        config, weights = self.layer(ssms, width=2, out_width=3, d=np.ones((3, 1)))
        with pytest.raises(ValueError, match="feedthrough shape"):
            layer_forward(config, weights, ssms, SequenceBatch(np.ones((16, 2))), scan=scan)

    @pytest.mark.parametrize("scan", [True, False])
    def test_growing_system_raises(self, scan):
        ssms = [DiscreteDiagonalSSM(lambda_bar=np.array([1.5 + 0j, 0.5 + 0j]),
                                    b_bar=np.ones((2, 1), dtype=complex), delta=1.0)]
        config, weights = self.layer(ssms)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError):
                layer_forward(config, weights, ssms, SequenceBatch(np.ones((4096, 1))),
                              scan=scan)

    @pytest.mark.parametrize("scan", [True, False])
    def test_zero_length(self, scan):
        ssms = self.bank(0.05, width=2)
        config, weights = self.layer(ssms, width=2, out_width=3)
        out = layer_forward(config, weights, ssms, SequenceBatch(np.zeros((0, 2))), scan=scan)
        assert out.values.shape == (0, 3)

    def test_channel_shape_mismatch(self):
        ssms = self.bank(0.05)
        config, weights = self.layer(ssms)
        wide = FilterBankConfig(channels=2, block_state=4, input_width=2, delta=0.05)
        for bad_config in (wide, FilterBankConfig(channels=2, block_state=3, delta=0.05)):
            with pytest.raises(ValueError, match="channel systems"):
                layer_forward(bad_config, weights, ssms,
                              SequenceBatch(np.zeros((4, bad_config.input_width))))


class TestSequenceBatch:
    def test_one_dimensional_promotes(self):
        batch = SequenceBatch(np.arange(4.0))
        assert batch.values.shape == (4, 1)
        assert batch.length == 4
        assert batch.width == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SequenceBatch(np.array([[1.0], [np.nan]]))


def test_silu_values():
    assert silu(0.0) == pytest.approx(0.0)
    assert silu(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))
    assert silu(np.array([-50.0]))[0] == pytest.approx(0.0, abs=1e-20)


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

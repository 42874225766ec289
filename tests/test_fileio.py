"""Round-trip and schema-validation tests for the file formats."""

import json

import numpy as np
import pytest

from fractalssm import fileio
from fractalssm.operators import build_operators
from fractalssm.spectral import spectral_init
from fractalssm.ssm import (FilterBankConfig, LayerWeights, SequenceBatch,
                            build_filter_bank, zoh_discretize)


class TestOperatorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        ops = build_operators(0.5, 5)
        path = tmp_path / "op.json"
        fileio.write_operator_file(path, ops)
        back = fileio.read_operator_file(path)
        assert back.alpha == ops.alpha
        assert back.n == ops.n
        assert back.quadrature_order == ops.quadrature_order
        assert np.array_equal(back.a, ops.a)
        assert np.array_equal(back.b, ops.b)

    def test_schema_version_enforced(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"schema_version": "fractal-op/2", "n": 1}))
        with pytest.raises(fileio.SchemaError):
            fileio.read_operator_file(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({
            "schema_version": "fractal-op/1", "alpha": 0.1, "n": 3,
            "a": [1.0] * 8, "b": [1.0] * 3, "quadrature_order": 6}))
        with pytest.raises(fileio.SchemaError):
            fileio.read_operator_file(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text("{not json")
        with pytest.raises(fileio.SchemaError):
            fileio.read_operator_file(path)

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", 2.0, "singularity index"),
        ("alpha", float("nan"), "singularity index"),
        ("n", 0, "state dimension"),
        ("n", "three", "invalid literal"),
        ("quadrature_order", -5, "quadrature order"),
        ("quadrature_order", 9, "quadrature order"),
    ])
    def test_out_of_range_field_rejected(self, tmp_path, field, value, message):
        # the bounds build_A enforces: alpha in [0, 0.95], n in [1, 256], order >= 2n
        path = tmp_path / "op.json"
        fileio.write_operator_file(path, build_operators(0.5, 5))
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=message):
            fileio.read_operator_file(path)


class TestModelFile:
    @staticmethod
    def build_model(seed=0, alphas=None):
        rng = np.random.default_rng(seed)
        config = FilterBankConfig(channels=2, block_state=3, alphas=alphas, input_width=2,
                                  output_width=2, delta=(0.02, 0.05))
        inits = build_filter_bank(config)
        total = config.total_state
        weights = LayerWeights(
            c_tilde=rng.standard_normal((2, total)) + 1j * rng.standard_normal((2, total)),
            w_out=rng.standard_normal((2, 2)),
            w_gate=rng.standard_normal((2, 2)),
            d=rng.standard_normal((2, 2)),
        )
        return config, inits, weights

    def test_round_trip_bit_exact(self, tmp_path):
        config, inits, weights = self.build_model()
        path = tmp_path / "model.json"
        fileio.write_model_file(path, config, inits, weights)
        config2, inits2, weights2 = fileio.read_model_file(path)
        assert config2 == config
        for a, b in zip(inits, inits2):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.v, b.v)
            assert np.array_equal(a.v_inv, b.v_inv)
            assert np.array_equal(a.b_tilde, b.b_tilde)
            assert a.cond_v == b.cond_v
        assert np.array_equal(weights2.c_tilde, weights.c_tilde)
        assert np.array_equal(weights2.w_out, weights.w_out)
        assert np.array_equal(weights2.w_gate, weights.w_gate)
        assert np.array_equal(weights2.d, weights.d)

    def test_scalar_feedthrough_round_trip(self, tmp_path):
        config, inits, weights = self.build_model()
        weights = LayerWeights(c_tilde=weights.c_tilde, w_out=weights.w_out,
                               w_gate=weights.w_gate, d=0.0)
        path = tmp_path / "model.json"
        fileio.write_model_file(path, config, inits, weights)
        _, _, weights2 = fileio.read_model_file(path)
        assert weights2.d == 0.0

    def test_channel_count_mismatch(self, tmp_path):
        config, inits, weights = self.build_model()
        path = tmp_path / "model.json"
        fileio.write_model_file(path, config, inits[:1], weights)
        with pytest.raises(fileio.SchemaError):
            fileio.read_model_file(path)

    @staticmethod
    def edited(tmp_path, edit, alphas=None):
        """A model file written by write_model_file, then edited as JSON."""
        path = tmp_path / "model.json"
        fileio.write_model_file(path, *TestModelFile.build_model(alphas=alphas))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("alpha", [0.9, 7.5])
    def test_channel_alpha_must_match_config(self, tmp_path, alpha):
        def edit(doc):
            doc["channels"][1]["alpha"] = alpha

        path = self.edited(tmp_path, edit, alphas=(0.1, 0.3))
        with pytest.raises(fileio.SchemaError, match="channel alpha"):
            fileio.read_model_file(path)

    def test_block_state_bound(self, tmp_path):
        def edit(doc):
            doc["config"]["block_state"] = 257

        with pytest.raises(fileio.SchemaError, match=r"\[1, 256\]"):
            fileio.read_model_file(self.edited(tmp_path, edit))

    def test_unknown_schema(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema_version": "other/9"}))
        with pytest.raises(fileio.SchemaError):
            fileio.read_model_file(path)


class TestDiscreteSystemFile:
    def test_round_trip(self, tmp_path):
        init = spectral_init(0.4, 5, input_width=2)
        ssm = zoh_discretize(init, 0.01)
        path = tmp_path / "dssm.json"
        fileio.write_dssm_file(path, ssm)
        back = fileio.read_dssm_file(path)
        assert back.delta == ssm.delta
        assert np.array_equal(back.lambda_bar, ssm.lambda_bar)
        assert np.array_equal(back.b_bar, ssm.b_bar)

    @pytest.mark.parametrize("field, value, message", [
        ("delta", -1.0, "timestep"),
        ("delta", 0.0, "timestep"),
        ("delta", float("nan"), "timestep"),
        ("delta", "fast", "could not convert"),
        ("n", "five", "invalid literal"),
    ])
    def test_out_of_range_field_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "dssm.json"
        fileio.write_dssm_file(path, zoh_discretize(spectral_init(0.4, 5), 0.01))
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=message):
            fileio.read_dssm_file(path)


class TestSequenceCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        batch = SequenceBatch(rng.standard_normal((17, 3)))
        path = tmp_path / "seq.csv"
        fileio.write_sequence_csv(path, batch)
        back = fileio.read_sequence_csv(path)
        assert np.array_equal(back.values, batch.values)

    def test_header_shape(self, tmp_path):
        path = tmp_path / "seq.csv"
        fileio.write_sequence_csv(path, SequenceBatch(np.zeros((2, 2))), prefix="y")
        header = path.read_text().splitlines()[0]
        assert header == "t,y_0,y_1"

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("t,u_0\n0,1.0\n1,2.0,3.0\n")
        with pytest.raises(fileio.SchemaError):
            fileio.read_sequence_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("t,u_0\n")
        with pytest.raises(fileio.SchemaError):
            fileio.read_sequence_csv(path)

    def test_missing_time_column(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("u_0\n1.0\n")
        with pytest.raises(fileio.SchemaError):
            fileio.read_sequence_csv(path)

"""Round-trip and schema-validation tests for the file formats."""

import copy
import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fractalssm import fileio
from fractalssm.cli import main
from fractalssm.operators import ALPHA_MAX, HippoOperators, build_A, build_operators
from fractalssm.spectral import SpectralInit, eig_triangular, spectral_init
from fractalssm.ssm import (DiscreteDiagonalSSM, FilterBankConfig, LayerWeights, SequenceBatch,
                            build_filter_bank, zoh_discretize)

GOLDEN_MODEL = Path(__file__).resolve().parent / "data" / "golden" / "run_model_4x8_w2.json"


def with_literal(path, doc, text):
    """Write doc as JSON to path with its "@" placeholder replaced by the raw
    JSON text, so a case can hold literals json.dumps never writes (1e999)."""
    path.write_text(json.dumps(doc).replace('"@"', text))
    return path


# values float() takes but no writer writes: strings, bools, and number
# literals past the float range, which json parses to inf or a huge int
NOT_NUMBERS = {"string-nan": '"nan"', "string-0.5": '"0.5"', "1e999": "1e999",
               "-1e999": "-1e999", "true": "true", "1e400-integer": "1" + "0" * 400}
NOT_A_NUMBER = pytest.mark.parametrize("text", list(NOT_NUMBERS.values()),
                                       ids=list(NOT_NUMBERS))


def refused(path, what, key, text):
    """pytest.raises for the SchemaError that names the file and the key."""
    return pytest.raises(fileio.SchemaError, match=re.escape(
        f"{path}: malformed {what} ({key}: could not convert {json.loads(text)!r} "
        "to a finite number)"))


class TestOperatorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        ops = build_operators(0.5, 5)
        path = tmp_path / "op.json"
        fileio.write_operator_file(path, ops)
        back = fileio.read_operator_file(path)
        assert back.alpha == ops.alpha
        assert back.n == ops.n
        assert "quadrature_order" not in json.loads(path.read_text())
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

    def test_entry_count_names_the_file(self, tmp_path):
        path = tmp_path / "op.json"
        fileio.write_operator_file(path, build_operators(0.5, 3))
        doc = json.loads(path.read_text())
        del doc["a"][-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=re.escape(
                f"{path}: malformed operator file (expected 9 entries, got 8)")):
            fileio.read_operator_file(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text("{not json")
        with pytest.raises(fileio.SchemaError):
            fileio.read_operator_file(path)

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", 2.0, "singularity index"),
        # json.dumps writes the NaN, Infinity and -Infinity literals, which the
        # writers never write and the reader refuses before it reads a field
        ("alpha", float("nan"), "non-finite number NaN"),
        ("n", 0, "state dimension"),
        ("n", 257, r"\[1, 256\]"),
        ("b", 3.0, "has no len"),
        pytest.param("a", [float("nan")] * 25, "non-finite number NaN",
                     id="a-nan-non-finite number NaN"),
        pytest.param("b", [1.0, 2.0, float("inf"), 4.0, 5.0], "non-finite number Infinity",
                     id="b-inf-non-finite number Infinity"),
        pytest.param("b", [float("-inf")] * 5, "non-finite number -Infinity",
                     id="b--inf-non-finite number -Infinity"),
    ])
    def test_out_of_range_field_rejected(self, tmp_path, field, value, message):
        # the bounds build_A enforces: alpha in [0, 0.95], n in [1, 256]; n is no
        # key but the length of b, bounded before a or b is parsed
        path = tmp_path / "op.json"
        fileio.write_operator_file(path, build_operators(0.5, 5))
        doc = json.loads(path.read_text())
        if field == "n":
            doc["b"] = [1.0] * value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=message):
            fileio.read_operator_file(path)

    @pytest.mark.parametrize("field, index, text", [
        pytest.param("a", 0, '"nan"', id="a-string-nan"),
        pytest.param("b", 1, "1e999", id="b-1e999"),
        pytest.param("alpha", None, '"0.5"', id="alpha-string-0.5"),
        *[pytest.param("b", 2, text, id=f"b-2-{name}") for name, text in NOT_NUMBERS.items()]])
    def test_number_must_be_a_finite_json_number(self, tmp_path, field, index, text):
        # float() reads "nan" as nan, 1e999 as inf and "0.5" as 0.5
        path = tmp_path / "op.json"
        fileio.write_operator_file(path, build_operators(0.5, 5))
        doc = json.loads(path.read_text())
        if index is None:
            doc[field] = "@"
        else:
            doc[field][index] = "@"
        with refused(path, "operator file", field, text):
            fileio.read_operator_file(with_literal(path, doc, text))

    def test_legacy_quadrature_order_ignored(self, tmp_path):
        # older fractal-op/1 files also state n, which the length of b fixes, and
        # the order of a quadrature assembly
        ops = build_operators(0.5, 5)
        path = tmp_path / "op.json"
        fileio.write_operator_file(path, ops)
        doc = json.loads(path.read_text())
        assert "n" not in doc and "quadrature_order" not in doc
        doc.update(n=ops.n, quadrature_order=9)
        path.write_text(json.dumps(doc, indent=1))
        back = fileio.read_operator_file(path)
        assert back.alpha == ops.alpha
        assert np.array_equal(back.a, ops.a)
        assert np.array_equal(back.b, ops.b)


class TestModelFile:
    @staticmethod
    def build_model(seed=0):
        rng = np.random.default_rng(seed)
        config = FilterBankConfig(channels=2, block_state=3, input_width=2, output_width=2,
                                  delta=(0.02, 0.05))
        inits = build_filter_bank(config)
        total = config.total_state
        weights = LayerWeights(
            c_tilde=rng.standard_normal((2, total)) + 1j * rng.standard_normal((2, total)),
            w_out=rng.standard_normal((2, 2)),
            w_gate=rng.standard_normal((2, 2)),
            d=rng.standard_normal((2, 2)),
        )
        return config, inits, weights

    @staticmethod
    def assert_same_model(model, back):
        (config, inits, weights), (config2, inits2, weights2) = model, back
        assert config2 == config
        assert len(inits2) == len(inits)
        for a, b in zip(inits, inits2):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.b_tilde, b.b_tilde)
            assert a.cond_v == b.cond_v
        assert np.array_equal(weights2.c_tilde, weights.c_tilde)
        assert np.array_equal(weights2.w_out, weights.w_out)
        assert np.array_equal(weights2.w_gate, weights.w_gate)
        assert np.array_equal(weights2.d, weights.d)

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.build_model()
        path = tmp_path / "model.json"
        fileio.write_model_file(path, *model)
        self.assert_same_model(model, fileio.read_model_file(path))

    def test_written_keys(self, tmp_path):
        # each fact once: the alphas fix the channel count and each channel's alpha
        path = tmp_path / "model.json"
        fileio.write_model_file(path, *self.build_model())
        doc = json.loads(path.read_text())
        assert set(doc["config"]) == {"block_state", "alphas", "delta", "input_width",
                                      "output_width"}
        for channel in doc["channels"]:
            assert set(channel) == {"lambda", "b_tilde"}

    def test_golden_model_reads_with_current_cond_v(self, tmp_path):
        # the committed model predates the reader that ignores cond_v and still
        # stores it; the value read is spectral_init's, whatever the file holds
        doc = json.loads(GOLDEN_MODEL.read_text(encoding="utf-8"))
        assert all("cond_v" in channel for channel in doc["channels"])
        for channel in doc["channels"]:
            channel["cond_v"] = 1.0
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(doc, indent=1))
        for path in (GOLDEN_MODEL, stale):
            config, inits, _ = fileio.read_model_file(path)
            assert (config.block_state, config.input_width) == (8, 2)
            for alpha, init in zip(config.alphas, inits, strict=True):
                assert init.cond_v == spectral_init(alpha, 8, 2).cond_v

    def test_legacy_eigenbasis_ignored(self, tmp_path):
        # older fractal-model/1 files also carry the channel count, each channel's
        # alpha, eigenbasis, shape and kappa_1(V), all of which the config fixes
        model = self.build_model()
        config = model[0]
        path = tmp_path / "model.json"
        fileio.write_model_file(path, *model)
        doc = json.loads(path.read_text())
        doc["config"]["channels"] = config.channels
        for channel, alpha in zip(doc["channels"], config.alphas):
            _, v, v_inv = eig_triangular(build_A(alpha, config.block_state))
            channel["alpha"] = alpha
            channel["n"] = config.block_state
            channel["input_width"] = config.input_width
            channel["v"] = [float(x) for x in v.ravel()]
            channel["v_inv"] = [float(x) for x in v_inv.ravel()]
            channel["cond_v"] = 1.0   # stale: the reader recomputes it
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(doc, indent=1))
        self.assert_same_model(model, fileio.read_model_file(legacy))

        seq = tmp_path / "in.csv"
        fileio.write_sequence_csv(seq, SequenceBatch(
            np.random.default_rng(3).standard_normal((64, 2))))
        outputs = []
        for model_file in (path, legacy):
            outputs.append(tmp_path / f"{model_file.stem}.csv")
            assert main(["run", "--model", str(model_file), "--input", str(seq),
                         "--out", str(outputs[-1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

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

    def test_channel_state_must_match_block_state(self, tmp_path):
        config, inits, weights = self.build_model()
        small = spectral_init(config.alphas[1], 2, config.input_width)
        path = tmp_path / "model.json"
        fileio.write_model_file(path, config, [inits[0], small], weights)
        # the config's block_state of 3 fixes the channel's shape
        with pytest.raises(fileio.SchemaError, match=re.escape(
                f"{path}: malformed model file (expected 3 complex entries, got 2)")):
            fileio.read_model_file(path)

    def test_channel_width_must_match_input_width(self, tmp_path):
        config, inits, weights = self.build_model()
        narrow = spectral_init(config.alphas[1], config.block_state, 1)
        path = tmp_path / "model.json"
        fileio.write_model_file(path, config, [inits[0], narrow], weights)
        with pytest.raises(fileio.SchemaError, match=re.escape(
                f"{path}: malformed model file (expected 6 complex entries, got 3)")):
            fileio.read_model_file(path)

    def test_entry_count_names_the_file(self, tmp_path):
        def edit(doc):
            del doc["weights"]["c_tilde"][-1]

        path = self.edited(tmp_path, edit)
        with pytest.raises(fileio.SchemaError, match=re.escape(
                f"{path}: malformed model file (expected 12 complex entries, got 11)")):
            fileio.read_model_file(path)

    def test_non_finite_value_writes_no_file(self, tmp_path):
        config, inits, weights = self.build_model()
        c_tilde = weights.c_tilde.copy()
        c_tilde[1, 2] = complex(np.nan, 0.0)
        weights = LayerWeights(c_tilde=c_tilde, w_out=weights.w_out,
                               w_gate=weights.w_gate, d=weights.d)
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            fileio.write_model_file(path, config, inits, weights)
        assert not path.exists()

    @staticmethod
    def edited(tmp_path, edit):
        """A model file written by write_model_file, then edited as JSON."""
        path = tmp_path / "model.json"
        fileio.write_model_file(path, *TestModelFile.build_model())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_block_state_bound(self, tmp_path):
        def edit(doc):
            doc["config"]["block_state"] = 257

        with pytest.raises(fileio.SchemaError, match=r"\[1, 256\]"):
            fileio.read_model_file(self.edited(tmp_path, edit))

    @pytest.mark.parametrize("value", [3.7, 3.0, "3", True], ids=repr)
    @pytest.mark.parametrize("key", ["block_state", "input_width", "output_width"])
    def test_count_must_be_an_integer(self, tmp_path, key, value):
        # the writer writes each count as a JSON integer, and int() would take
        # 3.7 and "3" as 3
        def edit(doc):
            doc["config"][key] = value

        path = self.edited(tmp_path, edit)
        with pytest.raises(fileio.SchemaError, match=re.escape(
                f"{path}: malformed model file ({key} must be an integer, got {value!r})")):
            fileio.read_model_file(path)

    @NOT_A_NUMBER
    @pytest.mark.parametrize("key", ["alphas", "delta", "d", "lambda"])
    def test_number_must_be_a_finite_json_number(self, tmp_path, key, text):
        path = tmp_path / "model.json"
        fileio.write_model_file(path, *self.build_model())
        doc = json.loads(path.read_text())
        if key in ("alphas", "delta"):
            doc["config"][key][1] = "@"
        elif key == "lambda":
            doc["channels"][0][key][2][1] = "@"
        else:
            doc["weights"][key] = "@"   # a scalar feedthrough
        with refused(path, "model file", key, text):
            fileio.read_model_file(with_literal(path, doc, text))

    def test_non_finite_literal_rejected(self, tmp_path):
        def edit(doc):
            doc["channels"][1]["b_tilde"][0][0] = float("nan")

        path = self.edited(tmp_path, edit)
        with pytest.raises(fileio.SchemaError, match=re.escape(
                f"{path}: not valid JSON (non-finite number NaN)")):
            fileio.read_model_file(path)

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

    def test_entry_count_names_the_file(self, tmp_path):
        path = tmp_path / "dssm.json"
        fileio.write_dssm_file(path, zoh_discretize(spectral_init(0.4, 5), 0.01))
        doc = json.loads(path.read_text())
        del doc["b_bar"][-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=re.escape(
                f"{path}: malformed discrete-system file "
                "(input_width must be >= 1 and whole: b_bar holds 4 entries for n = 5)")):
            fileio.read_dssm_file(path)

    def test_legacy_shape_ignored(self, tmp_path):
        # older fractal-dssm/1 files also state n and input_width, which the
        # lengths of lambda_bar and b_bar fix
        ssm = zoh_discretize(spectral_init(0.4, 5, input_width=2), 0.01)
        path = tmp_path / "dssm.json"
        fileio.write_dssm_file(path, ssm)
        doc = json.loads(path.read_text())
        assert "n" not in doc and "input_width" not in doc
        doc["n"], doc["input_width"] = ssm.b_bar.shape
        path.write_text(json.dumps(doc, indent=1))
        back = fileio.read_dssm_file(path)
        assert back.delta == ssm.delta
        assert np.array_equal(back.lambda_bar, ssm.lambda_bar)
        assert np.array_equal(back.b_bar, ssm.b_bar)

    @NOT_A_NUMBER
    @pytest.mark.parametrize("key", ["delta", "b_bar"])
    def test_number_must_be_a_finite_json_number(self, tmp_path, key, text):
        path = tmp_path / "dssm.json"
        fileio.write_dssm_file(path, zoh_discretize(spectral_init(0.4, 5), 0.01))
        doc = json.loads(path.read_text())
        if key == "delta":
            doc[key] = "@"
        else:
            doc[key][4][0] = "@"
        with refused(path, "discrete-system file", key, text):
            fileio.read_dssm_file(with_literal(path, doc, text))

    @pytest.mark.parametrize("field, value, message", [
        ("delta", -1.0, "timestep"),
        ("delta", 0.0, "timestep"),
        ("delta", float("nan"), "non-finite number NaN"),
        ("delta", "fast", "could not convert"),
        ("lambda_bar", 5, "has no len"),
        # the bounds fire before the arrays are parsed, not the shape check
        ("n", 0, r"\[1, 256\]"),
        ("n", 257, r"\[1, 256\]"),
        ("input_width", 0, "input_width must be >= 1"),
        pytest.param("b_bar", [[1.0, 0.0]] * 7, "input_width must be >= 1 and whole",
                     id="b_bar-7-input_width must be >= 1 and whole"),
        pytest.param("lambda_bar", [[0.5, float("nan")]] * 5, "non-finite number NaN",
                     id="lambda_bar-nan-non-finite number NaN"),
        pytest.param("b_bar", [[float("inf"), 0.0]] * 5, "non-finite number Infinity",
                     id="b_bar-inf-non-finite number Infinity"),
    ])
    def test_out_of_range_field_rejected(self, tmp_path, field, value, message):
        # n and input_width are no keys: n is the length of lambda_bar and the
        # width is b_bar's length over n, so a case sets them by resizing the arrays
        path = tmp_path / "dssm.json"
        fileio.write_dssm_file(path, zoh_discretize(spectral_init(0.4, 5), 0.01))
        doc = json.loads(path.read_text())
        if field == "n":
            doc["lambda_bar"] = [[1.0, 0.0]] * value
        elif field == "input_width":
            doc["b_bar"] = doc["b_bar"] * value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=message):
            fileio.read_dssm_file(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ALPHAS = st.floats(0.0, ALPHA_MAX)
STEPS = st.floats(0.0, exclude_min=True, allow_infinity=False)
STATES, WIDTHS = st.integers(1, 8), st.integers(1, 3)


def real_arrays(*shape):
    return hnp.arrays(float, shape, elements=FINITE)


def complex_arrays(*shape):
    return hnp.arrays(complex, shape, elements=st.complex_numbers(allow_nan=False,
                                                                   allow_infinity=False))


@st.composite
def operator_records(draw):
    n = draw(STATES)
    return (HippoOperators(alpha=draw(ALPHAS), a=draw(real_arrays(n, n)),
                           b=draw(real_arrays(n))),)


@st.composite
def model_records(draw):
    channels, n, width, out = draw(WIDTHS), draw(STATES), draw(WIDTHS), draw(WIDTHS)
    config = FilterBankConfig(
        channels=channels, block_state=n, input_width=width, output_width=out,
        alphas=draw(st.lists(ALPHAS, min_size=channels, max_size=channels)),
        delta=draw(st.lists(STEPS, min_size=channels, max_size=channels)))
    inits = [SpectralInit(eigenvalues=draw(complex_arrays(n)),
                          b_tilde=draw(complex_arrays(n, width)), cond_v=1.0)
             for _ in range(channels)]
    weights = LayerWeights(c_tilde=draw(complex_arrays(out, channels * n)),
                           w_out=draw(real_arrays(out, out)),
                           w_gate=draw(real_arrays(out, width)),
                           d=draw(FINITE | real_arrays(out, width)))
    return config, inits, weights


@st.composite
def dssm_records(draw):
    n, width = draw(STATES), draw(WIDTHS)
    return (DiscreteDiagonalSSM(lambda_bar=draw(complex_arrays(n)),
                                b_bar=draw(complex_arrays(n, width)), delta=draw(STEPS)),)


@pytest.fixture(scope="module")
def json_pair(tmp_path_factory):
    """The two files of the JSON round trip, in one directory for every
    example: each example overwrites them, so a shrinking run makes no
    directory per example."""
    folder = tmp_path_factory.mktemp("json")
    return folder / "a.json", folder / "b.json"


@pytest.mark.parametrize("write, read, records", [
    (fileio.write_operator_file, fileio.read_operator_file, operator_records()),
    (fileio.write_model_file, fileio.read_model_file, model_records()),
    (fileio.write_dssm_file, fileio.read_dssm_file, dssm_records()),
], ids=[fileio.OPERATOR_SCHEMA, fileio.MODEL_SCHEMA, fileio.DSSM_SCHEMA])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_json_round_trip_any_record(json_pair, write, read, records, data):
    # write -> read -> write repeats the bytes: every written value reads back
    # bit for bit, signed zeros and subnormals included
    first, second = json_pair
    write(first, *data.draw(records))
    back = read(first)
    write(second, *(back if isinstance(back, tuple) else (back,)))
    assert second.read_bytes() == first.read_bytes()


def key_paths(node, prefix=()):
    """The path of every key in a JSON document, keys nested in objects and
    lists included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from key_paths(value, prefix + (i,))


@pytest.mark.parametrize("write, read", [
    (lambda path: fileio.write_operator_file(path, build_operators(0.5, 5)),
     fileio.read_operator_file),
    (lambda path: fileio.write_model_file(path, *TestModelFile.build_model()),
     fileio.read_model_file),
    (lambda path: fileio.write_dssm_file(path, zoh_discretize(spectral_init(0.4, 5, 2), 0.01)),
     fileio.read_dssm_file),
], ids=[fileio.OPERATOR_SCHEMA, fileio.MODEL_SCHEMA, fileio.DSSM_SCHEMA])
def test_every_written_key_is_read(tmp_path, write, read):
    # a file holds no field that nothing reads: without any one key, the read fails
    path = tmp_path / "file.json"
    write(path)
    written = json.loads(path.read_text())
    unread = []
    for key_path in key_paths(written):
        doc = copy.deepcopy(written)
        node = doc
        for key in key_path[:-1]:
            node = node[key]
        del node[key_path[-1]]
        path.write_text(json.dumps(doc))
        try:
            read(path)
        except fileio.SchemaError:
            continue
        unread.append(key_path)
    assert unread == []


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

    @pytest.mark.parametrize("field, message", [
        ("abc", "could not convert string 'abc' to float64"),
        ("nan", "non-finite"),
        ("-inf", "non-finite"),
    ])
    def test_non_number_names_the_file(self, tmp_path, field, message):
        path = tmp_path / "seq.csv"
        path.write_text(f"t,u_0\n0,1.0\n1,{field}\n")
        with pytest.raises(fileio.SchemaError, match=rf"seq\.csv: .*{message}"):
            fileio.read_sequence_csv(path)

    def test_ragged_message_keeps_the_row_length(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("t,u_0\n0,1.0\n1,2.0,3.0\n")
        with pytest.raises(fileio.SchemaError, match="requires 2 columns but 3 were found"):
            fileio.read_sequence_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("# a comment", "requires 3 columns but 1 were found"),
        ("#", "requires 3 columns but 1 were found"),
        ("   ", "requires 3 columns but 1 were found"),
        ("\t", "requires 3 columns but 1 were found"),
        ("2,,1.0", "could not convert string '' to float64"),
        ("2,1.0, ", "could not convert string ' ' to float64"),
    ], ids=["comment", "hash", "spaces", "tab", "empty-field", "blank-field"])
    def test_reader_rejects(self, tmp_path, row, message):
        # no row is a comment and no row of spaces is skipped: each is a ragged row
        path = tmp_path / "seq.csv"
        path.write_text(f"t,u_0,u_1\n0,1.5,-2\n{row}\n1,0.003,4\n")
        with pytest.raises(fileio.SchemaError, match=rf"seq\.csv: .*{message}"):
            fileio.read_sequence_csv(path)

    @pytest.mark.parametrize("text, message, cause", [
        ("t,u_0\n0,1.0\n1,abc\n", "line 3: could not convert string 'abc' to float64",
         "at row 1, column 2"),
        ("t,u_0\n0,1.0\n\n1,abc\n", "line 4: could not convert string 'abc' to float64",
         "at row 1, column 2"),
        ("t,u_0\n0,1.0\n1,2.0,3.0\n", "line 3: the header requires 2 columns but 3 were found",
         "at row 2"),
        ("t,u_0\n\n0,1.0\n1,2.0,3.0\n", "line 4: the header requires 2 columns but 3 were found",
         "at row 2"),
        ("t,u_0\n0,1.0\n1,nan\n", "line 3: non-finite value 'nan'", "non-finite values"),
        ("t,u_0\r\n\r\n0,1.0\r\n\r\n1,-inf\r\n", "line 5: non-finite value '-inf'",
         "non-finite values"),
        ('t,u_0\n0,"1.0\n2"\n', "line 2: could not convert string '1.0\\n2' to float64",
         "at row 0, column 2"),
    ], ids=["field", "field-after-empty-line", "ragged", "ragged-after-empty-line", "nan",
            "inf-after-empty-lines", "field-spanning-lines"])
    def test_error_names_the_file_line(self, tmp_path, text, message, cause):
        # the header is line 1 and empty lines count; the reader's own error is the cause
        path = tmp_path / "seq.csv"
        path.write_bytes(text.encode())
        with pytest.raises(fileio.SchemaError) as excinfo:
            fileio.read_sequence_csv(path)
        assert str(excinfo.value) == f"{path}: {message}"
        assert cause in str(excinfo.value.__cause__)

    def test_error_without_a_line_keeps_the_loadtxt_message(self, tmp_path):
        # float() reads '1_0' as 10.0, so the re-scan finds no line at fault
        path = tmp_path / "seq.csv"
        path.write_text("t,u_0\n0,1_0\n")
        with pytest.raises(fileio.SchemaError) as excinfo:
            fileio.read_sequence_csv(path)
        assert str(excinfo.value) == f"{path}: {excinfo.value.__cause__}"
        assert "could not convert string '1_0' to float64 at row 0" in str(excinfo.value)

    def test_time_field_is_not_parsed(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text('t,u_0\nfirst,1.5\n#2,-2\n"a,b",0.25\n,4\n')
        assert np.array_equal(fileio.read_sequence_csv(path).values, [[1.5], [-2.0], [0.25], [4.0]])

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n"], ids=["none", "lf", "crlf"])
    def test_empty_body_warns_nothing(self, tmp_path, body):
        path = tmp_path / "seq.csv"
        path.write_text(f"t,u_0{body}", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fileio.SchemaError, match=r"seq\.csv: empty sequence"):
                fileio.read_sequence_csv(path)


class TestSequenceCsvGolden:
    """write_table_csv and write_sequence_csv byte for byte, and what
    read_sequence_csv accepts."""

    def test_table_writer_bytes(self, tmp_path):
        path = tmp_path / "table.csv"
        table = np.array([[0.0, -0.0, 5e-324], [0.5, 1e300, 1.0 / 3.0]])
        fileio.write_table_csv(path, ["x", "a,b", "y"], table.T)
        assert path.read_bytes() == (b'x,"a,b",y\r\n0.0,-0.0,5e-324\r\n'
                                     b"0.5,1e+300,0.3333333333333333\r\n")

    @pytest.mark.parametrize("header, columns", [
        (["t"], [np.arange(2), np.zeros(2)]),
        (["t", "u_0"], [np.arange(2), np.zeros(3)]),
        ([], []),
    ], ids=["names", "lengths", "empty"])
    def test_table_writer_rejects_mismatch(self, tmp_path, header, columns):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match=r"table\.csv: "):
            fileio.write_table_csv(path, header, columns)
        assert not path.exists()

    # bytes written by the per-row csv.writer the column-wise writer replaced
    @pytest.mark.parametrize("values, prefix, golden", [
        ([-0.0, 5e-324, 1e-310, 1e300, 0.1, -2.5], "u",
         b"t,u_0\r\n0,-0.0\r\n1,5e-324\r\n2,1e-310\r\n3,1e+300\r\n4,0.1\r\n5,-2.5\r\n"),
        ([[-0.0, 5e-324, 1e-310], [1e300, -1e300, 1.0 / 3.0],
          [7.0, 123456789.0, -1.5e-7]], "y",
         b"t,y_0,y_1,y_2\r\n0,-0.0,5e-324,1e-310\r\n"
         b"1,1e+300,-1e+300,0.3333333333333333\r\n2,7.0,123456789.0,-1.5e-07\r\n"),
        (np.zeros((0, 2)), "u", b"t,u_0,u_1\r\n"),
        ([[0.5, -0.25]], "a,b", b't,"a,b_0","a,b_1"\r\n0,0.5,-0.25\r\n'),
    ], ids=["width1", "width3", "zero-rows", "comma-prefix"])
    def test_writer_bytes(self, tmp_path, values, prefix, golden):
        path = tmp_path / "seq.csv"
        fileio.write_sequence_csv(path, SequenceBatch(np.array(values, dtype=float)), prefix)
        assert path.read_bytes() == golden

    def test_writer_matches_row_by_row_csv_writer(self, tmp_path):
        # a body of several write blocks, against the per-row writer it replaced
        rng = np.random.default_rng(5)
        values = rng.standard_normal((2 * fileio._CSV_BLOCK_ROWS + 3, 2)) * 10.0 ** rng.integers(
            -300, 300, size=(2 * fileio._CSV_BLOCK_ROWS + 3, 2))
        reference = tmp_path / "rows.csv"
        with open(reference, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "u_0", "u_1"])
            for k, row in enumerate(values):
                writer.writerow([k] + [repr(float(v)) for v in row])
        path = tmp_path / "seq.csv"
        fileio.write_sequence_csv(path, SequenceBatch(values))
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("text", [
        't,u_0,u_1\n"0","1.5",-2\n1,"3e-3",4\n',
        "t,u_0,u_1\n0, 1.5,-2\n1,0.003, 4\n",
        "t,u_0,u_1\r\n0,1.5,-2\r\n1,0.003,4\r\n",
        "t,u_0,u_1\n\n0,1.5,-2\n\n\n1,0.003,4\n\n",
    ], ids=["quoted", "leading-space", "crlf", "blank-lines"])
    def test_reader_accepts(self, tmp_path, text):
        path = tmp_path / "seq.csv"
        path.write_bytes(text.encode())
        back = fileio.read_sequence_csv(path)
        assert np.array_equal(back.values, [[1.5, -2.0], [0.003, 4.0]])

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        """The file of the CSV round trip, which every example overwrites."""
        return tmp_path_factory.mktemp("csv") / "seq.csv"

    @settings(max_examples=50, deadline=None)
    @given(rows=st.integers(1, 20).flatmap(lambda width: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width,
                 max_size=width), min_size=1, max_size=30)))
    def test_round_trip_any_finite_values(self, csv_path, rows):
        batch = SequenceBatch(np.array(rows, dtype=float))
        fileio.write_sequence_csv(csv_path, batch)
        back = fileio.read_sequence_csv(csv_path).values
        assert np.array_equal(back, batch.values)
        assert np.array_equal(np.signbit(back), np.signbit(batch.values))

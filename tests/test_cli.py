"""End-to-end CLI contract tests: exit codes, files, determinism."""

import argparse
import json

import numpy as np
import pytest

from fractalssm import fileio, quadrature, verify
from fractalssm.cli import _emit, main
from fractalssm.spectral import SpectralInit
from fractalssm.ssm import FilterBankConfig, LayerWeights, SequenceBatch, build_filter_bank


def run_cli(*argv) -> int:
    return main(list(argv))


class TestMatrixCommand:
    def test_uniform_five_state(self, tmp_path, capsys):
        out = tmp_path / "op.json"
        assert run_cli("matrix", "--alpha", "0", "--n", "5", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "fractal-op/1"
        assert doc["a"][1 * 5 + 0] == pytest.approx(1.73, abs=0.005)

    def test_half_index_five_state(self, tmp_path):
        out = tmp_path / "op.json"
        assert run_cli("matrix", "--alpha", "0.5", "--n", "5", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["a"][1 * 5 + 0] == pytest.approx(2.24, abs=0.005)

    def test_out_of_range_alpha(self, tmp_path, capsys):
        out = tmp_path / "op.json"
        assert run_cli("matrix", "--alpha", "1.2", "--n", "5", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "[0, 0.95]" in err

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("matrix", "--alpha", "0.3", "--n", "6", "--out", str(a))
        run_cli("matrix", "--alpha", "0.3", "--n", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["matrix", "--alpha", "0.5", "--n", "4"],
    ["discretize", "--alpha", "0.5", "--n", "4", "--delta", "0.1"],
    ["measure", "--alphas", "0.5", "--samples", "4"],
], ids=lambda argv: argv[0])
def test_output_directory_is_created(argv, tmp_path, capsys):
    # the fileio writers, not the commands, create a missing parent directory
    out = tmp_path / "a" / "b" / "out"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert out.is_file()


def test_json_output_nulls_non_finite_floats(capsys):
    payload = {"a": float("nan"),
               "b": [1.5, float("inf"), (float("-inf"), 2)],
               "c": {"d": (float("nan"),), "e": np.float64("-inf")}}
    _emit(argparse.Namespace(json=True), payload, [])
    assert capsys.readouterr().out == (
        '{\n "a": null,\n "b": [\n  1.5,\n  null,\n  [\n   null,\n   2\n  ]\n ],\n'
        ' "c": {\n  "d": [\n   null\n  ],\n  "e": null\n }\n}\n')


class TestOptionScope:
    # each subcommand accepts only the options it reads
    @pytest.mark.parametrize("argv", [
        ["verify", "--alpha-grid", "0", "--quad-order", "3"],
        ["run", "--model", "m.json", "--input", "in.csv", "--out", "o.csv", "--seed", "5"],
        ["matrix", "--alpha", "0", "--n", "5", "--out", "op.json", "--order", "8"],
        # the operator pair is a closed form, with no quadrature order
        ["matrix", "--alpha", "0", "--n", "5", "--out", "op.json", "--quad-order", "64"],
        ["spectrum", "--alpha", "0", "--n", "5", "--quad-order", "64"],
        ["discretize", "--alpha", "0", "--n", "5", "--delta", "0.1", "--out", "d.json",
         "--quad-order", "64"],
    ])
    def test_unread_option_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerifyCommand:
    def test_malformed_grid(self, capsys):
        assert run_cli("verify", "--alpha-grid", "abc", "--n", "4") == 2

    def test_out_of_range_grid(self, capsys):
        assert run_cli("verify", "--alpha-grid", "0.99", "--n", "4") == 2

    @pytest.mark.parametrize("grid", [",", "", " , "])
    def test_empty_grid_is_usage_error(self, grid, capsys):
        # zero checks would otherwise print "0 checks, 0 failed" and exit 0
        assert run_cli("verify", "--alpha-grid", grid, "--n", "4", "--json") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty alpha grid" in captured.err

    def test_repeated_alpha_is_usage_error(self, capsys):
        # not an offdiag-monotonicity failure and two ode-consistency[alpha=0.5] reports
        assert run_cli("verify", "--alpha-grid", "0,0.5,0.5", "--n", "8", "--json") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeats an alpha" in captured.err

    def test_negative_zero_alpha_is_named_zero(self, capsys):
        run_cli("verify", "--alpha-grid=-0", "--n", "2", "--json")
        names = {r["name"] for r in json.loads(capsys.readouterr().out)["reports"]}
        assert "ode-consistency[alpha=0]" in names

    @pytest.mark.parametrize("n", ["0", "-3", "257"])
    def test_out_of_range_n_rejected_before_any_check(self, n, monkeypatch, capsys):
        def no_check(*args, **kwargs):
            pytest.fail("a check ran before --n was validated")

        for name in dir(verify):
            if name.startswith("_check_"):
                monkeypatch.setattr(verify, name, no_check)
        monkeypatch.setattr(verify, "ode_consistency", no_check)
        assert run_cli("verify", "--alpha-grid", "0,0.5", "--n", n) == 2
        assert f"state dimension must lie in [1, 256], got {n}" in capsys.readouterr().err

    def test_uniform_grid_reports(self, capsys):
        # the condition-number check fails against the reference grid
        # (see the acceptance module); every other check passes at alpha=0
        code = run_cli("verify", "--alpha-grid", "0", "--n", "8", "--json")
        payload = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in payload["reports"]}
        assert by_name["legs-recovery"]["passed"]
        assert by_name["galerkin-projection"]["passed"]
        assert by_name["ode-consistency[alpha=0]"]["passed"]
        failed = {name for name, r in by_name.items() if not r["passed"]}
        assert failed == {"condition-growth"}
        assert code == 1
        assert all(r["seconds"] > 0.0 for r in payload["reports"])

    def test_raising_check_fails_the_run_not_the_usage(self, monkeypatch, capsys):
        # a check whose code under test raises is a failed check: exit 1, not 2
        def broken_layer(*args, **kwargs):
            raise ValueError("window shape cannot be larger than input array shape")

        monkeypatch.setattr(verify, "layer_forward", broken_layer)
        code = run_cli("verify", "--alpha-grid", "0", "--n", "4", "--json")
        payload = json.loads(capsys.readouterr().out)
        failed = {r["name"]: r for r in payload["reports"] if not r["passed"]}
        assert set(failed) == {"condition-growth", "layer-equivalence"}
        assert failed["layer-equivalence"]["detail"] == [
            {"error": "ValueError: window shape cannot be larger than input array shape"}]
        assert code == 1

    def test_json_is_strict(self, monkeypatch, capsys):
        # a crashed check's infinite deviation and NaN tolerance are written
        # as null, never as Infinity or NaN; condition-growth's worst ratio
        # against its table is finite, as its kappa(V) is monotone
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        def no_constant(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        monkeypatch.setattr(verify, "_check_zoh_limit", crash)
        assert run_cli("verify", "--alpha-grid", "0", "--n", "4", "--json") == 1
        payload = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        by_name = {r["name"]: r for r in payload["reports"]}
        growth = by_name["condition-growth"]["max_deviation"]
        assert isinstance(growth, float) and np.isfinite(growth)
        assert by_name["zoh-limit"]["max_deviation"] is None
        assert by_name["zoh-limit"]["tolerance"] is None
        assert by_name["legs-recovery"]["max_deviation"] >= 0.0

    def test_text_table_times_each_check(self, capsys):
        assert run_cli("verify", "--alpha-grid", "0", "--n", "4") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["check", "max", "deviation", "tolerance", "seconds",
                                    "status"]
        for line in lines[1:-1]:
            assert float(line.split()[3]) >= 0.0
        assert lines[-1].endswith("1 failed")


class TestSpectrumCommand:
    def test_eigenvalues_and_kappa(self, capsys):
        assert run_cli("spectrum", "--alpha", "0.5", "--n", "4", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenvalues"] == pytest.approx([1.0, 2.0, 3.0, 4.0])
        assert payload["kappa_v"] >= 1.0

    def test_single_state_kappa_one(self, capsys):
        assert run_cli("spectrum", "--alpha", "0.3", "--n", "1", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa_v"] == pytest.approx(1.0)


class TestMeasureCommand:
    def test_uniform_column_constant(self, tmp_path):
        out = tmp_path / "measure.csv"
        assert run_cli("measure", "--alphas", "0", "--samples", "4",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,alpha_0,legs,lagt,legt"
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0)

    def test_negative_zero_alpha_column(self, tmp_path):
        out = tmp_path / "measure.csv"
        assert run_cli("measure", "--alphas=-0", "--samples", "4", "--out", str(out)) == 0
        assert out.read_text().splitlines()[0] == "x,alpha_0,legs,lagt,legt"

    def test_rows_end_in_crlf(self, tmp_path):
        # the dialect of every CSV the CLI writes: a csv.writer header, CRLF rows
        out = tmp_path / "measure.csv"
        assert run_cli("measure", "--alphas", "0.5,0.9", "--samples", "5",
                       "--out", str(out)) == 0
        lines = out.read_bytes().split(b"\r\n")
        assert lines[0] == b"x,alpha_0.5,alpha_0.9,legs,lagt,legt"
        assert len(lines) == 7 and lines[-1] == b""
        assert not any(b"\n" in line or b"\r" in line for line in lines)

    def test_columns_monotone_in_alpha_near_present(self, tmp_path):
        out = tmp_path / "measure.csv"
        assert run_cli("measure", "--alphas", "0.25,0.5,0.75", "--samples", "100",
                       "--out", str(out)) == 0
        last = out.read_text().splitlines()[-1].split(",")
        columns = [float(v) for v in last[1:4]]
        assert columns[0] < columns[1] < columns[2]

    def test_bad_arguments(self, capsys):
        assert run_cli("measure", "--alphas", "0.5", "--samples", "1",
                       "--out", "/tmp/x.csv") == 2

    @pytest.mark.parametrize("grid", [",", "", " , "])
    def test_empty_grid_is_usage_error(self, grid, tmp_path, capsys):
        # a table of only the reference columns would otherwise be written
        out = tmp_path / "measure.csv"
        assert run_cli("measure", "--alphas", grid, "--samples", "4",
                       "--out", str(out)) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty alpha grid" in captured.err

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time(self, t, tmp_path, capsys):
        out = tmp_path / "measure.csv"
        assert run_cli("measure", "--alphas", "0.5", "--samples", "3", "--t", t,
                       "--out", str(out)) == 2
        assert not out.exists()


@pytest.fixture
def model_path(tmp_path):
    rng = np.random.default_rng(8)
    config = FilterBankConfig(channels=1, block_state=4, input_width=1,
                              output_width=1, delta=0.05)
    inits = build_filter_bank(config)
    weights = LayerWeights(
        c_tilde=rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)),
        w_out=np.eye(1), w_gate=np.eye(1))
    path = tmp_path / "model.json"
    fileio.write_model_file(path, config, inits, weights)
    return path


class TestRunCommand:
    def test_zero_input_zero_output(self, model_path, tmp_path):
        seq = tmp_path / "in.csv"
        fileio.write_sequence_csv(seq, SequenceBatch(np.zeros((8, 1))))
        out = tmp_path / "out.csv"
        assert run_cli("run", "--model", str(model_path), "--input", str(seq),
                       "--out", str(out)) == 0
        back = fileio.read_sequence_csv(out)
        assert np.all(back.values == 0.0)

    def test_width_mismatch(self, model_path, tmp_path, capsys):
        seq = tmp_path / "in.csv"
        fileio.write_sequence_csv(seq, SequenceBatch(np.zeros((8, 2))))
        out = tmp_path / "out.csv"
        assert run_cli("run", "--model", str(model_path), "--input", str(seq),
                       "--out", str(out)) == 2
        assert "input width 2" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_output(self, model_path, tmp_path, capsys):
        # a growing mode overflows the layer: a computation failure, exit 1
        doc = json.loads(model_path.read_text())
        doc["channels"][0]["lambda"][0] = [400.0, 0.0]
        model_path.write_text(json.dumps(doc))
        seq = tmp_path / "in.csv"
        fileio.write_sequence_csv(seq, SequenceBatch(np.ones((64, 1))))
        out = tmp_path / "out.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli("run", "--model", str(model_path), "--input", str(seq),
                           "--out", str(out)) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_short_array_names_the_model_file(self, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        del doc["weights"]["c_tilde"][-1]
        model_path.write_text(json.dumps(doc))
        seq = tmp_path / "in.csv"
        fileio.write_sequence_csv(seq, SequenceBatch(np.zeros((8, 1))))
        assert run_cli("run", "--model", str(model_path), "--input", str(seq),
                       "--out", str(tmp_path / "out.csv")) == 2
        assert capsys.readouterr().err == (f"error: {model_path}: malformed model file "
                                           "(expected 4 complex entries, got 3)\n")

    def test_byte_determinism(self, model_path, tmp_path):
        seq = tmp_path / "in.csv"
        rng = np.random.default_rng(4)
        fileio.write_sequence_csv(seq, SequenceBatch(rng.standard_normal((16, 1))))
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        run_cli("run", "--model", str(model_path), "--input", str(seq), "--out", str(out1))
        run_cli("run", "--model", str(model_path), "--input", str(seq), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_impulse_response_closed_form(self, model_path, tmp_path):
        # single uniform-measure channel on a unit impulse: the state is
        # lambda_bar^k * b_bar, so the gated output is Re(C x_k) * silu(u_k)
        from fractalssm.ssm import zoh_discretize
        from fractalssm.spectral import spectral_init

        length = 12
        u = np.zeros((length, 1))
        u[0, 0] = 1.0
        seq = tmp_path / "impulse.csv"
        fileio.write_sequence_csv(seq, SequenceBatch(u))
        out = tmp_path / "out.csv"
        assert run_cli("run", "--model", str(model_path), "--input", str(seq),
                       "--out", str(out)) == 0
        got = fileio.read_sequence_csv(out).values[:, 0]

        config, _, weights = fileio.read_model_file(model_path)
        ssm = zoh_discretize(spectral_init(0.0, 4), config.delta[0])
        powers = ssm.lambda_bar[None, :] ** np.arange(length)[:, None]
        states = powers * ssm.b_bar[:, 0]
        expected = (states @ weights.c_tilde.T).real[:, 0] * u[:, 0] / (1.0 + np.exp(-u[:, 0]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_eigenvalue_integrates(self, tmp_path):
        # lambda = [0, -1]: state 0 is an integrator, x_k = x_{k-1} + delta b u_k,
        # which the reader accepts and ZOH discretizes at its limit
        delta, b = 0.05, 0.5
        config = FilterBankConfig(channels=1, block_state=2, alphas=(0.5,), delta=delta)
        init = SpectralInit(eigenvalues=np.array([0.0j, -1.0 + 0.0j]),
                            b_tilde=np.array([[b + 0.0j], [2.0 + 0.0j]]), cond_v=1.0)
        model = tmp_path / "integrator.json"
        fileio.write_model_file(model, config, [init], LayerWeights(
            c_tilde=np.array([[1.0 + 0.0j, 0.0j]]), w_out=np.eye(1), w_gate=np.eye(1)))
        u = np.random.default_rng(11).standard_normal(3000)
        seq, out = tmp_path / "in.csv", tmp_path / "out.csv"
        fileio.write_sequence_csv(seq, SequenceBatch(u))
        assert run_cli("run", "--model", str(model), "--input", str(seq),
                       "--out", str(out)) == 0
        expected = delta * b * np.cumsum(u) * u / (1.0 + np.exp(-u))
        got = fileio.read_sequence_csv(out).values[:, 0]
        assert np.max(np.abs(got - expected)) <= 1e-10


class TestBenchCommand:
    def test_bench_is_a_usage_error(self, capsys):
        # perfbench is the one timing harness; the CLI has no bench command
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--len", "8")
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestDiscretizeCommand:
    def test_writes_stable_system(self, tmp_path):
        out = tmp_path / "dssm.json"
        assert run_cli("discretize", "--alpha", "0.4", "--n", "6", "--delta", "0.01",
                       "--out", str(out)) == 0
        ssm = fileio.read_dssm_file(out)
        assert np.all(np.abs(ssm.lambda_bar) < 1.0)

    def test_invalid_delta(self, tmp_path, capsys):
        assert run_cli("discretize", "--alpha", "0.4", "--n", "6", "--delta", "0",
                       "--out", str(tmp_path / "x.json")) == 2

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta(self, delta, tmp_path, capsys):
        out = tmp_path / "dssm.json"
        assert run_cli("discretize", "--alpha", "0.4", "--n", "3", "--delta", delta,
                       "--out", str(out)) == 2
        assert not out.exists()

    def test_step_checked_before_build(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("fractalssm.cli.spectral_init",
                            lambda *_: pytest.fail("built before the step check"))
        out = tmp_path / "dssm.json"
        assert run_cli("discretize", "--alpha", "0.9", "--n", "256", "--delta", "nan",
                       "--out", str(out)) == 2
        assert not out.exists()


class TestOracleCommand:
    def test_uniform_measure_passes(self, capsys):
        assert run_cli("oracle", "--alpha", "0", "--n", "8", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]
        assert payload["max_deviation"] < 1e-6

    def test_failed_rule_is_a_computation_failure(self, monkeypatch, capsys):
        # gauss_jacobi raises ArithmeticError, which main maps to exit 1
        monkeypatch.setattr(quadrature, "_seed_nodes", lambda d, e: np.full(d.size, np.nan))
        assert run_cli("oracle", "--alpha", "0.5", "--n", "4") == 1
        assert capsys.readouterr().err.startswith("computation failed: invalid rule")

    def test_unknown_signal_is_usage_error(self, capsys):
        # the names come from verify.SIGNALS, which the parser does not import
        assert run_cli("oracle", "--alpha", "0", "--n", "4", "--signal", "cos") == 2
        err = capsys.readouterr().err
        assert "unknown signal 'cos'" in err
        assert all(name in err for name in verify.SIGNALS)

    @pytest.mark.parametrize("signal", sorted(verify.SIGNALS))
    def test_every_signal_is_an_option(self, signal, capsys):
        assert run_cli("oracle", "--alpha", "0", "--n", "4", "--signal", signal, "--json") == 0
        assert json.loads(capsys.readouterr().out)["passed"]

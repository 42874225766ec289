"""End-to-end CLI contract tests: exit codes, files, determinism."""

import json

import numpy as np
import pytest

from fractalssm import fileio, verify
from fractalssm.cli import main
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

    def test_quad_order_written(self, tmp_path):
        out = tmp_path / "op.json"
        assert run_cli("matrix", "--alpha", "0.3", "--n", "5", "--quad-order", "64",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["quadrature_order"] == 64

    def test_quad_order_below_minimum(self, tmp_path, capsys):
        assert run_cli("matrix", "--alpha", "0.3", "--n", "5", "--quad-order", "0",
                       "--out", str(tmp_path / "op.json")) == 2

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("matrix", "--alpha", "0.3", "--n", "6", "--out", str(a))
        run_cli("matrix", "--alpha", "0.3", "--n", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestOptionScope:
    # each subcommand accepts only the options it reads
    @pytest.mark.parametrize("argv", [
        ["verify", "--alpha-grid", "0", "--quad-order", "3"],
        ["run", "--model", "m.json", "--input", "in.csv", "--out", "o.csv", "--seed", "5"],
        ["matrix", "--alpha", "0", "--n", "5", "--out", "op.json", "--order", "8"],
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
        assert by_name["diagonal-invariance"]["passed"]
        assert by_name["ode-consistency[alpha=0]"]["passed"]
        failed = {name for name, r in by_name.items() if not r["passed"]}
        assert failed == {"condition-growth"}
        assert code == 1
        assert all(r["seconds"] > 0.0 for r in payload["reports"])

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
        assert run_cli("run", "--model", str(model_path), "--input", str(seq),
                       "--out", str(tmp_path / "out.csv")) == 2

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
        from fractalssm.ssm import silu, zoh_discretize
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
        expected = (states @ weights.c_tilde.T).real[:, 0] * silu(u[:, 0])
        assert got == pytest.approx(expected, abs=1e-12)


class TestBenchCommand:
    def test_single_step_trivial(self, capsys):
        assert run_cli("bench", "--n", "4", "--len", "1", "--repeat", "1",
                       "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_relative_deviation"] == pytest.approx(0.0, abs=1e-14)

    def test_reports_timings_and_deviation(self, capsys):
        assert run_cli("bench", "--n", "16", "--len", "2048", "--repeat", "2",
                       "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sequential_s"] > 0
        assert payload["scan_s"] > 0
        assert payload["max_relative_deviation"] < 1e-10

    def test_zero_repeat(self, capsys):
        assert run_cli("bench", "--len", "8", "--repeat", "0") == 2


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

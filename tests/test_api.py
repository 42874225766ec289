"""Public surface: every exported name resolves and every demo runs."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fractalssm
from fractalssm import fileio
from fractalssm.ssm import FilterBankConfig, LayerWeights, SequenceBatch, build_filter_bank

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_exported_names_resolve():
    modules = [fractalssm] + [importlib.import_module(f"fractalssm.{info.name}")
                              for info in pkgutil.iter_modules(fractalssm.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_every_exported_function_has_a_caller():
    # a name or an attribute in another module of the package, a demo or the
    # benchmark; the __init__ re-export, comments and strings do not count, and
    # the record classes are what these functions return
    package = Path(fractalssm.__file__).resolve().parent
    files = ([path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
             + DEMOS + sorted((REPO / "perfbench").glob("*.py")))
    used = {}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used[path] = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                      | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})
    uncalled = []
    for name in fractalssm.__all__:
        function = getattr(fractalssm, name)
        if not inspect.isfunction(function):
            continue
        home = Path(inspect.getfile(function)).resolve()
        if not any(name in names for path, names in used.items() if path != home):
            uncalled.append(name)
    assert uncalled == []


def test_no_private_names_imported_across_modules():
    # a name another module needs is public: it goes in its owner's __all__
    private = [f"{path.name}:{node.lineno} {alias.name}"
               for path in sorted(Path(fractalssm.__file__).resolve().parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "fractalssm")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_module_imports_scipy():
    # the library needs only numpy; scipy is a test dependency
    imported = []
    for path in sorted(Path(fractalssm.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported += [f"{path.name}:{node.lineno} {name}"
                         for name in names if name.split(".")[0] == "scipy"]
    assert imported == []


def test_only_fileio_opens_files():
    # fileio owns every file format; any other module hands it what to write
    calls = []
    for path in sorted(Path(fractalssm.__file__).resolve().parent.glob("*.py")):
        if path.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "write_text", "write_bytes"):
                calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def run_fresh(code: str, *argv) -> str:
    """The last line `code` prints in a fresh interpreter that has imported
    sys, json and this checkout's fractalssm; argv follows as sys.argv[2:]."""
    src = str(Path(fractalssm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import json, sys, fractalssm\n"
            "assert fractalssm.__file__.startswith(sys.argv[1]), fractalssm.__file__\n"
            + code)
    proc = subprocess.run([sys.executable, "-c", code, src, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def modules_after(code: str, *argv) -> set[str]:
    """The modules loaded after `code` runs in a fresh interpreter (see run_fresh)."""
    return set(json.loads(run_fresh(code + "print(json.dumps(sorted(sys.modules)))\n",
                                    *argv)))


def under(package: str, modules: set[str]) -> list[str]:
    """The modules of `package`, the package itself included."""
    return sorted(m for m in modules if m.split(".")[0] == package)


SUBMODULES = {info.name for info in pkgutil.iter_modules(fractalssm.__path__)}
# the oracles' side of the package, which no build or run path needs
ORACLE_MODULES = {"fractalssm.verify", "fractalssm.quadrature", "fractalssm.specfun",
                  "fractalssm.measure"}


def test_import_leaves_scipy_unloaded():
    assert under("scipy", modules_after("import fractalssm.cli\n")) == []


def test_build_path_leaves_scipy_unloaded(tmp_path):
    # the operator pair is a closed form: building it, its spectrum, a filter
    # bank or a discretized system needs no quadrature rule
    code = ("from fractalssm.cli import main\n"
            "fractalssm.spectral_init(0.9, 64)\n"
            "fractalssm.build_filter_bank(fractalssm.FilterBankConfig(4, 8))\n"
            "out = sys.argv[2]\n"
            "assert main(['matrix', '--alpha', '0.9', '--n', '64', '--out', out + '/op.json']) == 0\n"
            "assert main(['spectrum', '--alpha', '0.9', '--n', '64', '--json']) == 0\n"
            "assert main(['discretize', '--alpha', '0.9', '--n', '8', '--delta', '0.01',\n"
            "             '--out', out + '/dssm.json']) == 0\n")
    assert under("scipy", modules_after(code, str(tmp_path))) == []


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha-grid", "0,0.9", "--n", "4", "--seed", "0"],
    ["measure", "--alphas", "0.5", "--samples", "20", "--out", "{out}/measure.csv"],
    ["oracle", "--alpha", "0.5", "--n", "8"],
], ids=lambda argv: argv[0])
def test_quadrature_commands_leave_scipy_unloaded(argv, tmp_path):
    # verify and oracle build Gauss-Jacobi rules, whose nodes numpy seeds;
    # measure tabulates the measure's closed forms
    argv = [arg.format(out=tmp_path) for arg in argv]
    code = f"from fractalssm.cli import main\nassert main({argv!r}) in (0, 1)\n"
    assert under("scipy", modules_after(code)) == []


def test_import_loads_numpy_and_no_submodule():
    # every public name and submodule loads on first use
    loaded = modules_after("")
    assert "numpy" in loaded
    assert under("fractalssm", loaded) == ["fractalssm"]


def test_first_use_loads_the_owner_only():
    loaded = modules_after("fractalssm.build_operators(0.5, 4)\n")
    assert under("fractalssm", loaded) == ["fractalssm", "fractalssm.operators"]


@pytest.mark.parametrize("argv", [
    ["run", "--model", "{out}/model.json", "--input", "{out}/in.csv", "--out", "{out}/out.csv"],
    ["matrix", "--alpha", "0.5", "--n", "8", "--out", "{out}/op.json"],
    ["spectrum", "--alpha", "0.5", "--n", "8"],
    ["discretize", "--alpha", "0.5", "--n", "8", "--delta", "0.01", "--out", "{out}/d.json"],
], ids=lambda argv: argv[0])
def test_build_commands_leave_the_oracles_unloaded(argv, tmp_path):
    config = FilterBankConfig(channels=2, block_state=4)
    weights = LayerWeights(c_tilde=np.ones((1, config.total_state), complex),
                           w_out=np.ones((1, 1)), w_gate=np.ones((1, 1)), d=0.0)
    fileio.write_model_file(tmp_path / "model.json", config, build_filter_bank(config), weights)
    fileio.write_sequence_csv(tmp_path / "in.csv", SequenceBatch(np.ones(16)))
    argv = [arg.format(out=tmp_path) for arg in argv]
    loaded = modules_after(f"from fractalssm.cli import main\nassert main({argv!r}) == 0\n")
    assert "fractalssm.operators" in loaded
    assert sorted(ORACLE_MODULES & loaded) == []


def test_suite_imports_nothing_once_its_first_check_starts():
    # each report's `seconds` times its check alone, not a first import; the
    # suite reads its clock just before the first check starts
    code = ("from types import SimpleNamespace\n"
            "from fractalssm import verify\n"
            "at_first_check = set()\n"
            "def perf_counter(clock=verify.time.perf_counter):\n"
            "    if not at_first_check:\n"
            "        at_first_check.update(sys.modules)\n"
            "    return clock()\n"
            "verify.time = SimpleNamespace(perf_counter=perf_counter)\n"
            "verify.run_full_suite([0.0, 0.5, 0.9], 8)\n"
            "print(json.dumps(sorted(set(sys.modules) - at_first_check)))\n")
    assert json.loads(run_fresh(code)) == []


def test_dir_lists_every_name_before_first_use():
    listed = json.loads(run_fresh("print(json.dumps(dir(fractalssm)))\n"))
    assert set(fractalssm.__all__) | SUBMODULES <= set(listed)
    assert listed == dir(fractalssm)   # the same listing once modules are loaded


def test_names_follow_their_module(monkeypatch):
    # a tracer rebinds a function on its module; the package hands out the
    # current binding, so a wrapper is never left behind in its namespace
    def wrapper(*args):
        pass

    original = fractalssm.operators.build_A
    monkeypatch.setattr(fractalssm.operators, "build_A", wrapper)
    assert fractalssm.build_A is wrapper
    monkeypatch.undo()
    assert fractalssm.build_A is original
    assert "build_A" not in vars(fractalssm)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'fractalssm' has no attribute 'build_C'"):
        fractalssm.build_C
    assert not hasattr(fractalssm, "recur_scan")


def test_no_module_imports_from_the_package_namespace():
    # such an import loads the name's owner through the package's __getattr__,
    # which would make the importing module's dependencies eager again
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in sorted(Path(fractalssm.__file__).resolve().parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.level, node.module) in ((1, None), (0, "fractalssm"))
             for alias in node.names if alias.name not in SUBMODULES]
    assert found == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, capsys):
    # demos may set numpy print options; keep them from leaking into other tests
    with np.printoptions():
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out

"""Public surface: every exported name resolves and every demo runs."""

import ast
import importlib
import inspect
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fractalssm

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


def scipy_modules_after(code: str, *argv) -> str:
    """The scipy modules loaded after `code` runs in a fresh interpreter."""
    src = str(Path(fractalssm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, fractalssm\n"
            "assert fractalssm.__file__.startswith(sys.argv[1]), fractalssm.__file__\n"
            + code +
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, src, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_unloaded():
    assert scipy_modules_after("import fractalssm.cli\n") == "[]"


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
    assert scipy_modules_after(code, str(tmp_path)) == "[]"


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
    assert scipy_modules_after(code) == "[]"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, capsys):
    # demos may set numpy print options; keep them from leaking into other tests
    with np.printoptions():
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out

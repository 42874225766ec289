"""Public surface: every exported name resolves and every demo runs."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import numpy as np
import pytest

import fractalssm

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_exported_names_resolve():
    modules = [fractalssm] + [importlib.import_module(f"fractalssm.{info.name}")
                              for info in pkgutil.iter_modules(fractalssm.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, capsys):
    # demos may set numpy print options; keep them from leaking into other tests
    with np.printoptions():
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out

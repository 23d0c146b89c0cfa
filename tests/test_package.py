import ast
import importlib
import pathlib

import pytest

import parahaar

SRC = pathlib.Path(parahaar.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    mod = importlib.import_module(f"parahaar.{name}" if name != "__init__" else "parahaar")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("name", [n for n in MODULES if n not in ("cli", "checks")])
def test_file_io_stays_at_the_boundary(name):
    """Only the command line and the calibration loader open files."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == []

import ast
import importlib
import pathlib
import re
from collections import Counter

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



PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
# kept although nothing in the package calls them: independent oracles
ORACLES = ("apply_paraproduct",)


def _words(path):
    """Every word of a file, comments and docstrings included, outside `__all__`."""
    text = path.read_text()
    skip = set()
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            skip.update(range(node.lineno, node.end_lineno + 1))
    return Counter(word for number, line in enumerate(text.splitlines(), 1)
                   if number not in skip for word in re.findall(r"\w+", line))


def test_no_dead_code():
    """Every top-level function and class of the package is named in the package
    or the benchmark besides its own definition and `__all__`; a re-export by
    `parahaar/__init__.py` names it."""
    words = sum(map(_words, [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]), Counter())
    defined = [(path.stem, node.name) for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    definitions = Counter(name for _, name in defined)
    dead = sorted(f"{module}.{name}" for module, name in defined
                  if words[name] <= definitions[name] and name not in ORACLES)
    assert dead == []

import ast
import importlib
import pathlib
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
# kept although nothing in the package calls them: independent oracles, or
# helpers the tests use
ORACLES = {
    "apply_paraproduct": "an independent oracle of the dense paraproduct",
    "apply_op": "the tests apply operators to functions with it",
}


def _references(path):
    """Every name a file's code refers to: names, attributes and imported
    names; definitions, `__all__`, comments and docstrings do not count."""
    tree = ast.parse(path.read_text())
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            skip.update(map(id, ast.walk(node)))
    refs = Counter()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
    return refs


def test_no_dead_code():
    """Every top-level function and class of the package is referred to by code
    of the package or the benchmark; a re-export by `parahaar/__init__.py`
    counts, a mention in a docstring or comment does not."""
    refs = sum(map(_references, [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]), Counter())
    defined = [(path.stem, node.name) for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    dead = sorted(f"{module}.{name}" for module, name in defined
                  if not refs[name] and name not in ORACLES)
    assert dead == []


def test_only_dyadic_reads_the_system_internals():
    """The private attributes and methods of FiniteDyadicSystem (the tables,
    the shift digits, the slot offsets) are read in `dyadic.py` alone; every
    other module goes through the public numbering."""
    tree = ast.parse((SRC / "dyadic.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "FiniteDyadicSystem")
    private = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    private |= {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "self"}
    private = {name for name in private if name.startswith("_") and not name.endswith("__")}
    assert {"_rank", "_digits", "_first_slot"} <= private
    reads = sorted(f"{path.stem}: {node.attr}" for path in SRC.glob("*.py") if path.stem != "dyadic"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr in private)
    assert reads == []

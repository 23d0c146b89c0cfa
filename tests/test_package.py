import ast
import importlib
import pathlib
import re
from collections import Counter

import numpy as np
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
    "model_bound": "the tolerance model, which the tests compare two routes within",
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


# defaulted parameters that no call site passes, kept on purpose
UNPASSED_DEFAULTS = {
    f"checks.{suite}(seed)": "each suite's fixed seed; `parahaar verify` runs it as frozen"
    for suite in ("exact_identity_suite", "explicit_constant_suite", "transference_suite",
                  "median_suite", "covering_suite", "kernel_suite", "shift_suite")
}


def _defaulted_parameters(path):
    """(call name, label, parameter, position or None, default) of every
    defaulted parameter of the file's top-level functions, methods and
    dataclass fields; a method's position does not count `self` or `cls`, a
    constructor is called by its class name."""
    out = []
    for node in ast.parse(path.read_text()).body:
        funcs = [(node.name, node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            decorators = {getattr(d, "id", getattr(getattr(d, "func", None), "id", None))
                          for d in node.decorator_list}
            if "dataclass" in decorators:
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                out += [(node.name, node.name, f.target.id, i, f.value)
                        for i, f in enumerate(fields) if f.value is not None]
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    call = node.name if item.name == "__init__" else item.name
                    funcs.append((call, f"{node.name}.{item.name}", item, 0 if static else 1))
        for call, label, fn, skip in funcs:
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            out += [(call, label, a.arg, i - skip, d)
                    for i, (a, d) in enumerate(zip(args[first:], fn.args.defaults), first)]
            out += [(call, label, a.arg, None, d)
                    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no call in the package, the tests or the benchmark
    overrides is a constant in disguise; it is written as one instead.  A
    call that passes the default's own literal overrides nothing."""
    calls = {}
    for path in [*SRC.glob("*.py"), *pathlib.Path(__file__).resolve().parent.glob("*.py"),
                 *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def other(value, default):
        """True unless `value` is the default's own literal."""
        return ast.dump(value) != ast.dump(default)

    def passed(call, param, pos, default):
        return any(any(k.arg is None or (k.arg == param and other(k.value, default))
                       for k in c.keywords)
                   or (pos is not None
                       and ((len(c.args) > pos and other(c.args[pos], default))
                            or any(isinstance(a, ast.Starred) for a in c.args)))
                   for c in calls.get(call, []))

    unpassed = sorted(f"{path.stem}.{label}({param})" for path in SRC.glob("*.py")
                      for call, label, param, pos, default in _defaulted_parameters(path)
                      if not passed(call, param, pos, default))
    assert unpassed == sorted(UNPASSED_DEFAULTS)


# parameters that their function never reads, kept on purpose
UNREAD = {
    "cli._experiment_weak_factorization(rng)":
        "every experiment takes (cfg, rng, outdir), and this one draws nothing",
    "checks._measure.<lambda>(line)": "the no-op progress callback when none is given",
}


def _unread_parameters(path):
    """'<module>.<function>(<parameter>)' of every parameter of a function,
    method or lambda of the file that its body never reads; a lambda is named
    after the function that holds it, `*args` and `**kwargs` count too."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                name = child.name if not isinstance(child, ast.Lambda) else "<lambda>"
                label = f"{owner}.{name}" if owner else name
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg) if a is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                out.extend(f"{path.stem}.{label}({p})" for p in params if p not in read)
                visit(child, label)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text()), "")
    return out


def test_every_parameter_is_read():
    """A parameter its function ignores is an option that does nothing; it is
    deleted instead."""
    unread = sorted(p for path in SRC.glob("*.py") for p in _unread_parameters(path))
    assert unread == sorted(UNREAD)


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


def test_only_dyadic_writes_the_cube_measure():
    """|Q| = d_eff^{-k} is written once, in `FiniteDyadicSystem.scale_measure`;
    no other module raises a `d_eff` attribute to a negative power."""
    sites = sorted(f"{path.stem}:{node.lineno}" for path in SRC.glob("*.py") if path.stem != "dyadic"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                   and getattr(node.left, "attr", None) == "d_eff"
                   and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub))
    assert sites == []


def _owners(path, match):
    """Per node of `path` that `match` accepts, the name of the function whose
    own body holds it, or "<module>" outside every function."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                owners.append(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return owners


def _functions_reading(path, attr):
    """The functions of `path` whose own body reads `.attr`, once per read."""
    return _owners(path, lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def _functions_calling(path, name):
    """The functions of `path` whose own body calls `name` or `.name`, once per call."""
    return _owners(path, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_only_descendants_reads_the_shift_digits():
    """The grid shift is written in one place: `FiniteDyadicSystem.__init__`
    sets the digits and `descendants` alone reads them; the cell tables and
    the tree supports are read off its children."""
    readers = sorted({f"{path.stem}:{name}" for path in SRC.glob("*.py")
                      for name in _functions_reading(path, "_digits")})
    assert readers == ["dyadic:__init__", "dyadic:descendants"]


def test_only_the_adjoint_oracle_reads_the_dense_average_table():
    """`cube_average_matrix` is the oracle of the flat `cube_averages`: inside
    the package only `adjoint_paraproduct` reads it."""
    readers = sorted(f"{path.stem}:{name}" for path in SRC.glob("*.py")
                     for name in _functions_reading(path, "cube_average_matrix"))
    assert readers == ["paraproducts:adjoint_paraproduct"]


def test_only_decompose_builds_the_whole_paraproduct():
    """Inside `paraproducts.py` only `decompose` calls `paraproduct`: a band,
    a splitting or a rank-one piece is scattered from the entries it keeps,
    not masked out of the whole operator."""
    assert _functions_calling(SRC / "paraproducts.py", "paraproduct") == ["decompose"]


def test_triangle_op_is_not_built_from_the_split_it_is_checked_by():
    """`triangle_op` calls none of the operators of Lambda_b = pi_{b*}^* +
    LambdaTilde_b, the identity `triangle-blockdiag-split` checks it by."""
    for name in ("paraproduct", "adjoint_paraproduct", "triangle_tilde"):
        assert "triangle_op" not in _functions_calling(SRC / "paraproducts.py", name), name


def test_commutator_pieces_is_built_from_neither_its_checks_nor_the_cells():
    """`commutator_pieces` calls none of the operators that the
    `commutator-cascade-identities` record checks Psi and V against (pi_a,
    pi_b, Lambda_b, R_b, the triangular projection), nor the cell route
    (the multiplication oracle and the conditional expectations)."""
    for name in ("paraproduct", "_average_scatter", "triangle_op", "r_op", "triangular_project",
                 "mult_op", "martingale_difference", "expectation"):
        assert "commutator_pieces" not in _functions_calling(SRC / "paraproducts.py", name), name


def test_paraproduct_core_reads_none_of_its_oracles_tables():
    """`paraproduct_core` reads the symbol's blocks and the tree alone
    (`descendants`, `scale_measure`): none of the tables the dense
    `paraproduct`, its oracle, is scattered from or checked against, so the
    two stay two routes."""
    for attr in ("cube_averages", "child_values", "basis_matrix", "cube_average_matrix",
                 "cells_by_scale"):
        assert "paraproduct_core" not in _functions_reading(SRC / "paraproducts.py", attr), attr
    for name in ("paraproduct", "_average_scatter", "cube_means", "supports"):
        assert "paraproduct_core" not in _functions_calling(SRC / "paraproducts.py", name), name


def test_the_samplers_take_s_p_from_the_core():
    """The calibrated sampler and the rank-piece record take S_p from
    `paraproduct_core` through `_paraproduct_norms`; none of them builds the
    (D m)^2 operator."""
    samplers = {"_paraproduct_draws", "check_rank_piece_lower", "_paraproduct_norms"}
    assert not samplers & set(_functions_calling(SRC / "checks.py", "paraproduct"))
    assert set(_functions_calling(SRC / "checks.py", "_paraproduct_norms")) == {
        "_paraproduct_draws", "check_rank_piece_lower"}
    assert sorted(_functions_calling(SRC / "checks.py", "paraproduct_core")) == [
        "_paraproduct_norms", "check_paraproduct_core"]


def test_only_apply_paraproduct_reads_the_cell_tables_among_the_operators():
    """Inside `paraproducts.py` only `apply_paraproduct`, the matrix-free
    oracle, reads `cells_by_scale`; every operator is assembled on the tree."""
    readers = set(_functions_reading(SRC / "paraproducts.py", "cells_by_scale"))
    assert readers == {"apply_paraproduct"}


def test_one_cell_pair_quadrature():
    """The midpoint rule over cell pairs is written once: `cell_pair_means`
    alone builds the subcell grids, and both the discretized kernel and the
    continuum form's weights read it."""
    callers = sorted(f"{path.stem}:{name}" for path in SRC.glob("*.py")
                     for name in _functions_calling(path, "cell_midgrids"))
    assert callers == ["norms:cell_pair_means"]
    users = sorted(f"{path.stem}:{name}" for path in SRC.glob("*.py")
                   for name in _functions_calling(path, "cell_pair_means"))
    assert users == ["kernels:discretize", "norms:_grid_weights"]


def test_the_row_certificate_takes_the_kernels_quadrant_masks():
    """The closed-quadrant side test is written once, in `accel.quadrant_masks`:
    the mass kernel and the median search's row certificate both call it."""
    assert _functions_calling(SRC / "median.py", "quadrant_masks") == ["_row_certified"]
    assert _functions_calling(SRC / "accel.py", "quadrant_masks") == ["quadrant_masses_kernel"]


def test_only_the_average_tables_walk_the_supports():
    """In the package only `cube_averages` and its dense oracle
    `cube_average_matrix` call `supports()`; the operators read the flat table."""
    callers = {f"{path.stem}:{name}" for path in SRC.glob("*.py")
               for name in _functions_calling(path, "supports")}
    assert callers == {"dyadic:cube_averages", "dyadic:cube_average_matrix"}


# the package functions that may read the dense D x D `basis_matrix`, each an
# oracle; every operator, the transforms and the Besov and BMO functionals
# walk the tree instead
BASIS_READERS = {
    "checks:check_orthonormality": "the Gram matrix, and the dense products the walks "
                                   "`coeffs` and `synthesize` are judged against",
    "dyadic:cube_average_matrix": "the dense oracle of the flat `cube_averages`",
    "paraproducts:mult_op": "the dense oracle of the decomposition M_b",
    "shifts:averaged_shift_cell_matrix": "each grid's shift carried to a cell matrix, B S B^H",
}


def test_only_the_oracles_read_the_basis_matrix():
    readers = {f"{path.stem}:{name}" for path in SRC.glob("*.py")
               for name in _functions_reading(path, "basis_matrix")}
    assert sorted(readers) == sorted(BASIS_READERS)


def test_only_dyadic_decides_real_or_complex_tables():
    """Whether a wavelet table is real or complex is decided in `dyadic.py`
    alone: no other module calls `np.iscomplexobj`, and no module makes a
    typed copy of `basis_matrix`."""
    checks = sorted(f"{path.stem}:{node.lineno}" for path in SRC.glob("*.py")
                    if path.stem != "dyadic" for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and node.attr == "iscomplexobj")
    casts = sorted(f"{path.stem}:{node.lineno}" for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr == "astype"
                   and getattr(node.value, "attr", None) == "basis_matrix")
    assert checks == [] and casts == []


def test_only_spectral_decomposes_a_matrix():
    """Every singular value of the package comes from `spectral.py`, which
    applies one rank-noise rule to all its p-norms: no other module calls
    an SVD or imports one."""
    sites = sorted(f"{path.stem}:{node.lineno}" for path in SRC.glob("*.py")
                   if path.stem != "spectral" for node in ast.walk(ast.parse(path.read_text()))
                   if (isinstance(node, ast.Attribute) and node.attr in ("svd", "svdvals"))
                   or (isinstance(node, ast.alias) and node.name in ("svd", "svdvals")))
    assert sites == []


def test_no_module_imports_a_private_of_norms():
    """`norms` keeps its helpers to itself; what the other modules share with
    it lives in `spectral` or is public."""
    reads = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "norms":
                reads += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and getattr(node.value, "id", None) == "norms"):
                reads.append(f"{path.stem}: {node.attr}")
    assert reads == []


def test_the_integer_rule_is_written_once():
    """What counts as an integer argument, and how its refusal reads, is
    `dyadic._integer_field`'s alone; `cli` keeps its config and flag
    messages, which its tests pin."""
    owners = sorted({f"{path.stem}:{name}" for path in SRC.glob("*.py") if path.stem != "cli"
                     for name in _owners(path, lambda node: isinstance(node, ast.Constant)
                                         and "must be an integer" in str(node.value))})
    assert owners == ["dyadic:_integer_field"]


def _integer_sites():
    """Per site: the argument, an int out of its range, an int in it, and a
    call of the site with the value."""
    from parahaar import algebras, kernels, norms, shifts, spectral
    from parahaar.dyadic import (CubeId, DyadicParams, FiniteDyadicSystem, GridShift, HaarIndex,
                                 StepFunction, build_system, expectation, martingale_difference)
    from parahaar.paraproducts import band, random_symbol, splitting

    sys, colours = build_system(DyadicParams(2, 3)), build_system(DyadicParams(3, 2))
    rng = np.random.default_rng(0)
    b, f = random_symbol(sys, rng), StepFunction(np.arange(8.0))
    K = kernels.hilbert_kernel()
    C = kernels.discretize(K, 8, refinement=1)
    cases = {
        "DyadicParams.d": ("d", 1, 2, lambda v: DyadicParams(v, 2)),
        "DyadicParams.depth": ("depth", 0, 2, lambda v: DyadicParams(2, v)),
        "DyadicParams.dim": ("dim", 0, 2, lambda v: DyadicParams(2, 2, dim=v)),
        "shift-digit": ("omega[0]", 2, 1, lambda v: FiniteDyadicSystem(DyadicParams(2, 2),
                                                                       GridShift((v, 0)))),
        "haar_values": ("color", 3, 2,
                        lambda v: colours.haar_values(HaarIndex(CubeId(0, (0,)), v))),
        "schatten_norm": ("blockdim", 0, 2, lambda v: spectral.schatten_norm(np.eye(4), 1, v)),
        "besov_continuums.dim": ("dim", 0, 2, lambda v: norms.besov_continuums(np.ones(4), [1], v)),
        "besov_haar_adjacents.dim": ("dim", 0, 2,
                                     lambda v: norms.besov_haar_adjacents(np.ones(4), [1], v, 0)),
        "variant_mask": ("variant_mask", 2, 1,
                         lambda v: norms.besov_haar_adjacents(np.ones(4), [1], 1, v)),
        "testing_quantity": ("separation A", 0, 1,
                             lambda v: kernels.testing_quantity(C, sys, np.ones(8), v, 2.0)),
        "band.n": ("n", 3, 0, lambda v: band(sys, b, v, 1)),
        "band.m_scale": ("m_scale", 3, 1, lambda v: band(sys, b, 0, v)),
        "splitting.n_step": ("n_step", 1, 2, lambda v: splitting(sys, b, v, 0)),
        "splitting.k": ("k", 3, 1, lambda v: splitting(sys, b, 3, v)),
        "expectation": ("k", 4, 1, lambda v: expectation(sys, f, v)),
        "martingale_difference": ("k", 0, 2, lambda v: martingale_difference(sys, f, v)),
        "random_shift.i": ("i", 3, 1, lambda v: shifts.random_shift(sys, v, 0, 0)),
        "random_shift.j": ("j", 3, 1, lambda v: shifts.random_shift(sys, 0, v, 0)),
        "tensor_basis.i": ("i", 3, 1, lambda v: algebras.tensor_basis(v, 1, 2)),
        "tensor_basis.j": ("j", 0, 2, lambda v: algebras.tensor_basis(1, v, 2)),
        "tensor_basis.d": ("d", 0, 2, lambda v: algebras.tensor_basis(1, 1, v)),
        "random_symbol.blockdim": ("blockdim", 0, 2, lambda v: random_symbol(sys, rng, blockdim=v)),
        "random_symbol.scales": ("scales[0]", 3, 1, lambda v: random_symbol(sys, rng, scales=[v])),
        "discretize.cells_per_axis": ("cells_per_axis", 0, 2, lambda v: kernels.discretize(K, v)),
        "discretize.refinement": ("refinement", 0, 1, lambda v: kernels.discretize(K, 4, v)),
        "besov_continuums.refinement": ("refinement", 0, 1, lambda v: norms.besov_continuums(
            np.ones(4), [1], refinement=v)),
        "KernelSpec.dim": ("dim", 0, 1, lambda v: kernels.KernelSpec(K.evaluate, v, 1.0, 1.0)),
        "car_generators": ("n_gen", 0, 1, algebras.car_generators),
        "car_subsets": ("n_gen", 0, 1, algebras.car_subsets),
        "car_word.n_gen": ("n_gen", 0, 2, lambda v: algebras.car_word((1,), v)),
        "car_sign": ("n_gen", 0, 1, lambda v: algebras.car_sign((), (), v)),
        "car_paraproduct": ("n_gen", 0, 1, lambda v: algebras.car_paraproduct({}, v)),
        "besov_cars": ("n_gen", 0, 1, lambda v: algebras.besov_cars({}, v, [1])),
        "car_transference_checks": ("n_gen", 0, 1, lambda v: algebras.car_transference_checks(
            {}, v, [1])),
        "tensor_indices.d": ("d", 0, 2, lambda v: algebras.tensor_indices(v, 1)),
        "tensor_indices.levels": ("levels", 0, 1, lambda v: algebras.tensor_indices(2, v)),
        "tensor_word.d": ("d", 0, 2, lambda v: algebras.tensor_word((), v, 1)),
        "tensor_word.levels": ("levels", 0, 1, lambda v: algebras.tensor_word((), 2, v)),
        "tensor_word.i": ("i", 3, 1, lambda v: algebras.tensor_word([(v, 1)], 2, 1)),
        "tensor_word.j": ("j", 0, 2, lambda v: algebras.tensor_word([(1, v)], 2, 1)),
        "eta_lambda.d": ("d", 0, 2, lambda v: algebras.eta_lambda((), (), v)),
        "eta_lambda.i": ("i", 3, 1, lambda v: algebras.eta_lambda(((v, 1),), (), 2)),
        "eta_lambda.j": ("j", 0, 2, lambda v: algebras.eta_lambda((), ((1, v),), 2)),
        "tensor_paraproduct.d": ("d", 0, 2, lambda v: algebras.tensor_paraproduct({}, v, 1)),
        "tensor_paraproduct.levels": ("levels", 0, 1, lambda v: algebras.tensor_paraproduct(
            {}, 2, v)),
        "besov_tensors.levels": ("levels", 0, 1, lambda v: algebras.besov_tensors({}, 2, v, [1])),
        "tensor_transference_checks.d": ("d", 0, 2, lambda v: algebras.tensor_transference_checks(
            {}, v, 1, [1])),
    }
    return [pytest.param(*case, id=label) for label, case in cases.items()]


@pytest.mark.parametrize("name,outside,inside,call", _integer_sites())
def test_every_integer_argument_takes_the_one_rule(name, outside, inside, call):
    """A float, a bool and an int out of range each raise ValueError naming
    the argument; a numpy integer is accepted."""
    for value in (0.5, True, outside):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer")):
            call(value)
    call(np.int64(inside))

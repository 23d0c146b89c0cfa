import numpy as np
import pytest

from parahaar.checks import model_bound
from parahaar.dyadic import DyadicParams, build_system
from parahaar.kernels import (GridOperator, commutator_grid_op, discretize,
                              hilbert_kernel, homogeneous_sign_kernel,
                              nondegenerate_probe,
                              nwo_quantities,
                              random_admissible_family,
                              standard_check,
                              weak_factorization, KernelSpec)
from parahaar.kernels import testing_quantity as tq_separated
from parahaar.spectral import schatten_norm


def sample_triples(rng, count=200):
    out = []
    for _ in range(count):
        x = rng.uniform(0, 1)
        y = x + rng.uniform(0.05, 2.0) * rng.choice([-1, 1])
        xp = x + rng.uniform(0.001, abs(x - y) / 2 * 0.999) * rng.choice([-1, 1])
        out.append((x, xp, y))
    return out


def test_standard_check_hilbert(rng):
    rep = standard_check(hilbert_kernel(), sample_triples(rng))
    assert rep["violations"] == []
    assert rep["worst_size_ratio"] <= 1.0 + 1e-12


def test_standard_check_zero_kernel(rng):
    K = KernelSpec(lambda x, y: np.zeros(np.broadcast(x[..., 0], y[..., 0]).shape),
                   1, C=1.0, alpha=1.0)
    rep = standard_check(K, sample_triples(rng, 30))
    assert rep["worst_size_ratio"] == 0.0 and rep["violations"] == []


def test_standard_check_flags_violations(rng):
    # declare a constant far too small: violations listed, not hidden
    bad = KernelSpec(hilbert_kernel().evaluate, 1, C=0.25, alpha=1.0)
    rep = standard_check(bad, sample_triples(rng, 50))
    assert len(rep["violations"]) > 0


def test_probe_exact_hilbert():
    pr = nondegenerate_probe(hilbert_kernel(), [0.0], 1.0, 10.0)
    assert abs(pr["K00"]) == 1.0 / 10.0
    assert pr["bracket"][0] <= pr["dist"] <= pr["bracket"][1]
    eps = [nondegenerate_probe(hilbert_kernel(), [0.0], 1.0, A)["eps"]
           for A in (10.0, 30.0, 100.0)]
    assert eps[0] > eps[1] > eps[2]


def test_probe_returns_the_witnesses_only():
    pr = nondegenerate_probe(hilbert_kernel(), [0.0], 1.0, 10.0)
    assert set(pr) == {"y0", "K00", "dist", "bracket", "eps", "threshold"}


def test_probe_homogeneous_direction():
    pr = nondegenerate_probe(homogeneous_sign_kernel(), [0.3], 0.01, 10.0)
    assert pr["y0"][0] == pytest.approx(0.3 + 10 * 0.01, abs=1e-15)


def _riesz2(x, y):
    """The second Riesz kernel in the plane: zero along the first axis."""
    z = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return z[..., 1] / np.linalg.norm(z, axis=-1) ** 3


def test_probe_pointwise_dim2_searches_directions():
    # |K| = |sin a| / (A r)^2 against the threshold 1 / (2 (A r)^2): the first
    # of the 64 search angles with sin a >= 1/2 is the seventh
    K = KernelSpec(_riesz2, 2, C=1.0, alpha=1.0, nondegeneracy=("pointwise", 2.0))
    pr = nondegenerate_probe(K, [0.1, 0.2], 0.5, 10.0)
    a = np.linspace(0, 2 * np.pi, 64, endpoint=False)[6]
    assert np.array_equal(pr["y0"], np.array([0.1, 0.2]) + 5.0 * np.array([np.cos(a), np.sin(a)]))
    assert pr["threshold"] == 1.0 / (2.0 * 5.0**2)
    assert pr["dist"] == pytest.approx(5.0, rel=1e-15)


def test_probe_pointwise_dim3_is_refused():
    def riesz3(x, y):
        z = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return z[..., 0] / np.linalg.norm(z, axis=-1) ** 4

    K = KernelSpec(riesz3, 3, C=1.0, alpha=1.0, nondegeneracy=("pointwise", 1.0))
    with pytest.raises(ValueError, match="got dim 3"):
        nondegenerate_probe(K, [0.0, 0.0, 0.0], 1.0, 10.0)


def test_probe_rejects_small_A():
    with pytest.raises(ValueError):
        nondegenerate_probe(hilbert_kernel(), [0.0], 1.0, 2.0)


@pytest.mark.parametrize("field,value", [("C", np.nan), ("C", np.inf), ("C", 0.0), ("C", -1.0),
                                         ("C", True), ("C", "1"), ("alpha", 0.0), ("alpha", 1.5),
                                         ("alpha", np.nan), ("alpha", True), ("alpha", None)])
def test_kernel_spec_refuses_constants_that_make_its_checks_vacuous(field, value):
    # a NaN C would have every size and difference ratio compare false: no violations
    constants = {"C": 1.0, "alpha": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be"):
        KernelSpec(hilbert_kernel().evaluate, 1, **constants)


def test_kernel_spec_takes_numpy_constants():
    K = KernelSpec(hilbert_kernel().evaluate, np.int64(1), C=np.float64(2.0), alpha=np.int64(1))
    assert type(K.dim) is int and K.C == 2.0 and K.alpha == 1


@pytest.mark.parametrize("field,value", [("r", -1.0), ("r", 0.0), ("r", np.nan), ("r", np.inf),
                                         ("r", True), ("A", np.nan), ("A", np.inf),
                                         ("A", 2.0), ("A", True)])
def test_probe_refuses_a_radius_or_separation_out_of_range(field, value):
    args = {"r": 1.0, "A": 10.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be"):
        nondegenerate_probe(hilbert_kernel(), [0.0], args["r"], args["A"])


@pytest.mark.parametrize("matrix,dim,cells_per_axis", [(np.eye(4), 1, 8), (np.eye(8), 2, 4),
                                                       (np.ones((8, 4)), 1, 8),
                                                       (np.ones(8), 1, 8)])
def test_grid_operator_refuses_a_matrix_off_its_cells(matrix, dim, cells_per_axis):
    with pytest.raises(ValueError, match="matrix must be"):
        GridOperator(matrix, dim, cells_per_axis)


def test_probe_failure_diagnostics():
    dead = KernelSpec(lambda x, y: 1e-9 / (x[..., 0] - y[..., 0]), 1,
                      C=1.0, alpha=1.0, nondegeneracy=("pointwise", 1.0))
    with pytest.raises(RuntimeError):
        nondegenerate_probe(dead, [0.0], 1.0, 10.0)


def test_discretize_antisymmetric():
    T = discretize(hilbert_kernel(), 4, refinement=1)
    assert np.abs(T.matrix + T.matrix.T).max() == 0.0
    assert np.abs(np.diag(T.matrix)).max() == 0.0


def test_discretize_zero_kernel():
    K = KernelSpec(lambda x, y: np.zeros(np.broadcast(x[..., 0], y[..., 0]).shape),
                   1, C=1.0, alpha=1.0)
    assert np.abs(discretize(K, 8).matrix).max() == 0.0


def test_discretize_refinement_monotone():
    entries = []
    for ref in (1, 2, 4):
        T = discretize(hilbert_kernel(), 8, refinement=ref)
        entries.append(abs(T.matrix[0, 5]))
    assert entries[0] <= entries[1] <= entries[2]


def test_weak_factorization_examples():
    T = discretize(hilbert_kernel(), 256, refinement=2)
    q = np.arange(8, 12)
    f = np.zeros(256, dtype=complex)
    f[q[:2]] = 1.0
    f[q[2:]] = -1.0
    out = weak_factorization(f, q, q + 64, T)
    assert out["residual"] < 1e-12
    assert abs(out["ftilde_mean"]) < 1e-12
    zero = weak_factorization(np.zeros(256, dtype=complex), q, q + 64, T)
    assert np.abs(zero["h"]).max() == 0.0 and np.abs(zero["ftilde"]).max() == 0.0


def test_weak_factorization_decay():
    T = discretize(hilbert_kernel(), 256, refinement=2)
    q = np.arange(8, 12)
    f = np.zeros(256, dtype=complex)
    f[q[:2]] = 1.0
    f[q[2:]] = -1.0
    ratios = [weak_factorization(f, q, q + 4 * A, T)["remainder_ratio"]
              for A in (8, 16, 32)]
    assert ratios[0] > ratios[1] > ratios[2]


def test_weak_factorization_preconditions():
    T = discretize(hilbert_kernel(), 32, refinement=1)
    q = np.arange(0, 4)
    f = np.zeros(32, dtype=complex)
    f[q] = 1.0  # nonzero mean
    with pytest.raises(ValueError):
        weak_factorization(f, q, q + 8, T)
    with pytest.raises(ValueError):
        weak_factorization(np.zeros(32, dtype=complex), q, q + 2, T)


def test_nwo_quantity_bounded(rng):
    sys = build_system(DyadicParams(2, 5))
    n = sys.n_cells
    fams = random_admissible_family(sys, rng)
    for _ in range(5):
        V = GridOperator((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n,
                         1, n)
        for p, q in zip((1.5, 2.0, 3.0), nwo_quantities(V, fams, (1.5, 2.0, 3.0))):
            assert q <= 3.0 * schatten_norm(V.matrix, p)


def _reference_admissible_family(sys, rng):
    """The family as whole-grid vectors, zero off each cube: the layout and
    the draws `random_admissible_family` had before it kept each cube's cells."""
    fams = []
    for k in range(sys.params.depth):
        bound = sys.scale_measure(k) ** -0.5
        for cells in sys.cells_by_scale[k]:
            e = np.zeros(sys.n_cells, dtype=complex)
            f = np.zeros(sys.n_cells, dtype=complex)
            e[cells] = bound * np.sqrt(rng.uniform(0, 1, cells.size)) * np.exp(2j * np.pi * rng.uniform(0, 1, cells.size))
            f[cells] = bound * np.sqrt(rng.uniform(0, 1, cells.size)) * np.exp(2j * np.pi * rng.uniform(0, 1, cells.size))
            fams.append((e, f))
    return fams


def _full_pairings(V, full):
    """|<e_I, V f_I>| of whole-grid vectors, through V.apply on every cell."""
    return [abs(np.vdot(e, V.apply(f)) * V.cell_measure) for e, f in full]


def _abs_family(fams):
    return [(cells, np.abs(e), np.abs(f)) for cells, e, f in fams]


@pytest.mark.parametrize("dim,depth", [(1, 4), (2, 3)])
def test_admissible_family_keeps_each_cubes_cells_from_the_same_stream(dim, depth):
    sys = build_system(DyadicParams(2, depth, dim=dim))
    fams = random_admissible_family(sys, np.random.default_rng(7))
    full = _reference_admissible_family(sys, np.random.default_rng(7))
    cubes = [cells for k in range(depth) for cells in sys.cells_by_scale[k]]
    assert len(fams) == len(full) == len(cubes)
    for (cells, e, f), (E, F), want in zip(fams, full, cubes):
        assert np.array_equal(cells, want) and e.shape == f.shape == cells.shape
        for small, big in ((e, E), (f, F)):
            placed = np.zeros(sys.n_cells, dtype=complex)
            placed[cells] = small
            assert placed.tobytes() == big.tobytes()


def test_nwo_quantities_equal_per_p_loop(rng):
    sys = build_system(DyadicParams(2, 3, dim=2))
    n = sys.n_cells
    seed = int(rng.integers(2**31))
    fams = random_admissible_family(sys, np.random.default_rng(seed))
    full = _reference_admissible_family(sys, np.random.default_rng(seed))
    V = GridOperator((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n, 2, 8)
    ps = (0.5, 1, 2, 4, np.inf)
    want = []
    for p in ps:  # each pairing taken afresh for every p, on the whole grid
        total = 0.0
        terms = _full_pairings(V, full)
        for t in terms:
            total += t ** p
        want.append(float(max(terms)) if p == np.inf else float(total ** (1.0 / p)))
    got = nwo_quantities(V, fams, ps)
    assert [nwo_quantities(V, fams, (p,))[0] for p in ps] == got
    # within the tolerance model: each pairing's block sum against the whole
    # grid's matrix product (2 n terms) at the scale of |e|^T |V| |f|, then
    # the sum of the len(fams) pairings, carried through the 1/p root
    scale = nwo_quantities(GridOperator(np.abs(V.matrix), 2, 8), _abs_family(fams), ps)
    for x, y, s, p in zip(got, want, scale, ps):
        assert abs(x - y) <= model_bound(2 * n + len(fams), s) / min(p, 1.0), p


def _scaled(V, s):
    return GridOperator(s * V.matrix, V.dim, V.cells_per_axis)


def test_nwo_quantity_at_inf_is_the_largest_pairing(rng):
    sys = build_system(DyadicParams(2, 4))
    n = sys.n_cells
    seed = int(rng.integers(2**31))
    fams = random_admissible_family(sys, np.random.default_rng(seed))
    full = _reference_admissible_family(sys, np.random.default_rng(seed))
    V = GridOperator(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1, n)
    top = max(abs(np.vdot(e, V.matrix[np.ix_(cells, cells)] @ f) * V.cell_measure)
              for cells, e, f in fams)
    assert nwo_quantities(V, fams, (np.inf,)) == [top]
    scale = nwo_quantities(GridOperator(np.abs(V.matrix), 1, n), _abs_family(fams), (np.inf,))
    assert abs(top - max(_full_pairings(V, full))) <= model_bound(2 * n, scale[0])
    for s in (1e-3, 1e3):  # homogeneous of degree 1, like every finite p
        assert nwo_quantities(_scaled(V, s), fams, (np.inf,))[0] == pytest.approx(s * top, rel=1e-12)


def test_testing_quantity_at_inf_is_the_largest_term(rng):
    sys = build_system(DyadicParams(2, 5))
    T = discretize(hilbert_kernel(), 32, refinement=2)
    vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    C = commutator_grid_op(T, vals)
    top = tq_separated(C, sys, vals, A=4, p=np.inf)
    for s in (0.01, 100.0):
        assert tq_separated(_scaled(C, s), sys, vals, A=4, p=np.inf) == \
            pytest.approx(s * top, rel=1e-12)
    # scaled so the largest term is 1, every term^p <= 1 and one equals 1:
    # 1 <= q_p <= (number of terms)^(1/p), and 240^(1/300) < 1.02
    q = tq_separated(_scaled(C, 1 / top), sys, vals, A=4, p=300.0)
    assert 1 - 1e-12 <= q <= 1.02


def test_commutator_grid_op_equals_the_dense_product(rng):
    # the package's kernels discretize to real matrices: there each scaled
    # entry is the one nonzero term of its dense product, bit for bit
    for kernel, n in ((hilbert_kernel(), 32), (homogeneous_sign_kernel(), 64)):
        T = discretize(kernel, n, refinement=2)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        M = np.diag(b)
        C = commutator_grid_op(T, b)
        assert np.array_equal(C.matrix, T.matrix @ M - M @ T.matrix)
        assert (C.dim, C.cells_per_axis) == (T.dim, T.cells_per_axis)
    # a complex T: either route rounds each complex product once, and a
    # fused multiply-add may round it differently, within a few ulp
    n = 64
    T = GridOperator(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1, n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    M = np.diag(b)
    size = np.abs(T.matrix) * (np.abs(b)[None, :] + np.abs(b)[:, None])
    err = np.abs(commutator_grid_op(T, b).matrix - (T.matrix @ M - M @ T.matrix))
    assert (err <= 4 * np.finfo(float).eps * size).all()


@pytest.mark.parametrize("A", [0, -3, True, 2.5, 4.0, "4", None])
def test_testing_quantity_rejects_a_separation_that_is_not_a_positive_integer(A):
    sys = build_system(DyadicParams(2, 4))
    C = GridOperator(np.eye(16, dtype=complex), 1, 16)
    with pytest.raises(ValueError, match="separation A"):
        tq_separated(C, sys, np.ones(16), A=A, p=2.0)


def test_testing_quantity_positive(rng):
    sys = build_system(DyadicParams(2, 4))
    T = discretize(hilbert_kernel(), 16, refinement=2)
    vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    C = commutator_grid_op(T, vals)
    q = tq_separated(C, sys, vals, A=3, p=2.0)
    assert q > 0
    # constant symbols commute
    C0 = commutator_grid_op(T, np.ones(16))
    assert np.abs(C0.matrix).max() < 1e-14


def test_grid_ops_apply(rng):
    vals = rng.standard_normal(8)
    M = GridOperator(np.diag(vals.astype(complex)), 1, 8)
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.allclose(M.apply(f), vals * f)


def _testing_quantity_per_cube(C, sys, b_values, A, p, partners):
    """The per-cube reference, on labels: each scale-k cube I (0 < k < N) is
    paired with the cube `shift` cells to its right on the first axis, or to
    its left when the right one leaves the window, and is skipped when
    neither fits; `partners` counts the three cases."""
    from parahaar.dyadic import CubeId
    from parahaar.median import quadrant_sets

    dim = sys.params.dim
    terms = []
    for k in range(1, sys.params.depth):
        per = (sys.params.d if dim == 1 else 2) ** k
        shift = max(1, min(A, per - 1))
        meas, meas_q = sys.d_eff ** -k, sys.d_eff ** -(k + 1)
        for cube in sys.cubes_by_scale[k]:
            first = cube.index[0]
            if first + shift < per:
                partner, case = first + shift, "right"
            elif first - shift >= 0:
                partner, case = first - shift, "left"
            else:
                partners["none"] += 1
                continue
            partners[case] += 1
            cells_i = sys.cells_of(cube)
            cells_hat = sys.cells_of(CubeId(k, (partner, *cube.index[1:])))
            (_, _, e_sets, f_sets), = quadrant_sets([(b_values[cells_i], b_values[cells_hat],
                                                     meas)])
            for child in sys.children(cube):
                in_child = set(sys.cells_of(child).tolist())
                for s in range(4):
                    e = np.zeros(C.n_cells, dtype=complex)
                    e[cells_hat[f_sets[s]]] = np.sqrt(meas_q) / meas
                    f = np.zeros(C.n_cells, dtype=complex)
                    f[[c for c in cells_i[e_sets[s]] if c in in_child]] = 1 / np.sqrt(meas_q)
                    terms.append(A ** dim * abs(np.vdot(e, C.apply(f)) * C.cell_measure))
    return max(terms) if p == np.inf else sum(t ** p for t in terms) ** (1 / p)


@pytest.mark.parametrize("dim,depth,A", [(1, 4, 3), (1, 5, 2), (2, 3, 2), (2, 4, 3)])
def test_testing_quantity_partners_equal_per_cube_loop(rng, dim, depth, A):
    sys = build_system(DyadicParams(2, depth, dim=dim))
    n = sys.n_cells
    C = GridOperator(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                     dim, 2**depth)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    absolute = GridOperator(np.abs(C.matrix), dim, 2**depth)
    for p in (1.0, 2.0, np.inf):
        partners = dict.fromkeys(("right", "left", "none"), 0)
        want = _testing_quantity_per_cube(C, sys, vals, A, p, partners)
        # the block sums against the whole grid's products, at the scale of the
        # same pairings of |C|; n^2 bounds either route's longest inner sum
        scale = tq_separated(absolute, sys, vals, A=A, p=p)
        assert abs(tq_separated(C, sys, vals, A=A, p=p) - want) <= model_bound(n * n, scale)
        assert partners["right"] > 0 and partners["left"] > 0


def test_adjoint_apply_is_the_conjugate_transpose_without_a_copy(rng):
    import tracemalloc

    n = 256
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T = GridOperator(M, 1, n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mu = np.sqrt(T.cell_measure)
    # the product with an explicit conjugated copy, which it replaces bit for bit
    assert T.adjoint_apply(v).tobytes() == ((M.conj().T @ (v * mu)) / mu).tobytes()
    tracemalloc.start()
    try:
        T.adjoint_apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n  # a few vectors; a copy of M would add 16 n^2


def test_discretize_holds_one_matrix():
    import tracemalloc

    n = 128
    tracemalloc.start()
    try:
        T = discretize(hilbert_kernel(), n, refinement=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the matrix, the cell midpoints and one row's kernel values; scaling a
    # copy would add 16 n^2
    assert peak <= 16 * n * n + 256 * n
    assert T.matrix.shape == (n, n)

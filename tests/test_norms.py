import itertools

import numpy as np
import pytest

from parahaar.algebras import (besov_cars, besov_tensors, car_subsets, car_word,
                               tensor_indices, tensor_word)
from parahaar.checks import model_bound
from parahaar.dyadic import (CubeId, DyadicParams, GridShift, HaarIndex, StepFunction,
                             build_system, expectation, martingale_difference)
from parahaar.kernels import GridOperator, nwo_quantities, random_admissible_family
from parahaar.kernels import testing_quantity as tq_separated
from parahaar.norms import (_grid_weights, _half_overlaps,
                            besov_continuums, besov_diff, besov_diffs,
                            besov_haar,
                            besov_haar_adjacents, besov_haars, besov_osc,
                            bmo_dyadic, bmo_operator)
from parahaar.paraproducts import Symbol, random_symbol
from parahaar.spectral import block_norms, schatten_norm, schatten_norms


def assert_within_model(got, want, n, ps):
    """Two routes to (sum of n nonnegative terms)^(1/p), one value per p, agree
    within the tolerance model: model_bound(n, sum) on the sum, which the 1/p
    root carries to 4 n eps / min(p, 1) of the value (p = inf: the max)."""
    assert len(got) == len(want) == len(ps)
    for x, y, p in zip(got, want, ps):
        assert abs(x - y) <= model_bound(n, y) / min(p, 1.0), (p, x, y)


def unit_symbol(sys, cube, color, value=1.0):
    return Symbol(sys, {HaarIndex(cube, color): np.array([[value]])})


def test_besov_haar_single():
    sys = build_system(DyadicParams(2, 1))
    b = unit_symbol(sys, CubeId(0, (0,)), 1, value=2.5j)
    for p in (0.5, 1, 2, 4):
        assert besov_haar(sys, b, p) == pytest.approx(2.5)
    assert besov_haar(sys, Symbol(sys, {}), 2) == 0.0


def test_besov_haar_scale1_pair():
    sys = build_system(DyadicParams(2, 2))
    b = Symbol(sys, {HaarIndex(CubeId(1, (0,)), 1): np.array([[1.0]]),
                     HaarIndex(CubeId(1, (1,)), 1): np.array([[1.0]])})
    for p in (0.5, 1, 2, 3):
        target = (2 * (1 / np.sqrt(0.5)) ** p) ** (1 / p)
        assert besov_haar(sys, b, p) == pytest.approx(target)


def test_besov_diff_single():
    sys = build_system(DyadicParams(2, 1))
    b = unit_symbol(sys, CubeId(0, (0,)), 1)
    for p in (0.5, 1, 2, 4):
        assert besov_diff(sys, b, p) == pytest.approx(2 ** (1 / p))


def test_p2_exact(rng):
    for d in (2, 3):
        sys = build_system(DyadicParams(d, 3))
        for _ in range(10):
            b = random_symbol(sys, rng)
            assert besov_diff(sys, b, 2) == pytest.approx(
                np.sqrt(d) * besov_haar(sys, b, 2), abs=1e-12)


def test_osc_trivial_and_window():
    sys = build_system(DyadicParams(2, 1))
    const = Symbol(sys, {}, coarse_mean=np.array([[4.0]]))
    assert besov_osc(sys, const, 2) == 0.0
    # a top-scale wavelet only oscillates at the coarse window term
    b = unit_symbol(sys, CubeId(0, (0,)), 1)
    for p in (1, 2, 3):
        assert besov_osc(sys, b, p) == pytest.approx(1.0)
        # both telescoping constants are tight here
        diff = besov_diff(sys, b, p)
        assert besov_osc(sys, b, p) <= diff / (2 ** (1 / p) - 1) + 1e-12
        assert diff**p <= 2 * besov_osc(sys, b, p) ** p + 1e-12


def test_osc_rejects_small_p(rng):
    sys = build_system(DyadicParams(2, 2))
    with pytest.raises(ValueError):
        besov_osc(sys, random_symbol(sys, rng), 0.5)


def test_osc_constants_random(rng):
    for d in (2, 3):
        sys = build_system(DyadicParams(d, 3))
        for p in (1.0, 2.0, 3.0):
            for _ in range(30):
                b = random_symbol(sys, rng)
                diff = besov_diff(sys, b, p)
                osc = besov_osc(sys, b, p)
                assert osc <= diff / (d ** (1 / p) - 1) + 1e-10 * max(1, diff)
                assert diff**p <= d * osc**p + 1e-10 * max(1, diff**p)


def test_bmo_examples(rng):
    sys = build_system(DyadicParams(2, 2))
    b = unit_symbol(sys, CubeId(0, (0,)), 1)
    forms = bmo_dyadic(sys, b)
    assert forms.conditional == pytest.approx(1.0)
    assert forms.coefficient == pytest.approx(1.0)
    const = Symbol(sys, {}, coarse_mean=np.array([[7.0]]))
    forms0 = bmo_dyadic(sys, const)
    assert forms0.conditional == 0.0 and forms0.coefficient == 0.0
    for d in (2, 3):
        s = build_system(DyadicParams(d, 3))
        for _ in range(10):
            bb = random_symbol(s, rng)
            f = bmo_dyadic(s, bb)
            assert abs(f.conditional - f.coefficient) < 1e-12 * max(1, f.coefficient)


def _conditional_form_loop(sys, b):
    """The conditional form through `martingale_difference`, which takes each
    E_n b twice: the loop the walk holding E_{n+1} b and E_n b replaced."""
    f = b.function()
    form, tail = 0.0, np.zeros(sys.n_cells)
    for n in range(sys.params.depth - 1, -1, -1):
        tail = tail + np.abs(martingale_difference(sys, f, n + 1).scalar()) ** 2
        cond = expectation(sys, StepFunction(tail.astype(complex)), n)
        form = max(form, float(np.sqrt(cond.scalar().real.max())))
    return form


@pytest.mark.parametrize("d,N,dim,shift", [(2, 5, 1, None), (3, 3, 1, None),
                                           (2, 4, 1, (1, 0, 1, 1)), (2, 3, 2, None)])
def test_bmo_conditional_form_takes_each_expectation_once(monkeypatch, rng, d, N, dim, shift):
    """2N + 1 conditional expectations: E_N b, then E_n b and E_n of the
    tail at each n; the form is the martingale-difference loop's bit for bit."""
    import parahaar.norms as norms_module

    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    b = random_symbol(sys, rng)
    want = _conditional_form_loop(sys, b)
    calls = []

    def spy(*args):
        calls.append(args[2])
        return expectation(*args)

    monkeypatch.setattr(norms_module, "expectation", spy)
    assert bmo_dyadic(sys, b).conditional == want
    assert len(calls) == 2 * N + 1


def test_oscillation_forms_walk_the_tree_once(monkeypatch, rng):
    """besov_osc and bmo_operator read b's cell values off the one walk that
    gives its cube means."""
    sys = build_system(DyadicParams(2, 4))
    b = random_symbol(sys, rng, blockdim=2)
    walk = sys.cube_means
    calls = []

    def spy(coeffs):
        calls.append(1)
        return walk(coeffs)

    monkeypatch.setattr(sys, "cube_means", spy)
    for form in (lambda: besov_osc(sys, b, 2.0), lambda: bmo_operator(sys, b)):
        calls.clear()
        form()
        assert len(calls) == 1


def test_bmo_rejects_blocks(rng):
    sys = build_system(DyadicParams(2, 2))
    with pytest.raises(ValueError):
        bmo_dyadic(sys, random_symbol(sys, rng, blockdim=2))


def test_bmo_operator(rng):
    sys = build_system(DyadicParams(2, 3))
    b = random_symbol(sys, rng)
    forms = bmo_dyadic(sys, b)
    assert bmo_operator(sys, b) == pytest.approx(forms.conditional, abs=1e-12)
    const = Symbol(sys, {}, coarse_mean=np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert bmo_operator(sys, const) == 0.0
    h = sys.haar_values(HaarIndex(CubeId(0, (0,)), 1))
    blockfun = StepFunction(np.einsum("c,ij->cij", h, np.diag([1.0, 0.0])))
    assert bmo_operator(sys, Symbol.from_function(sys, blockfun)) == pytest.approx(1.0)


@pytest.mark.parametrize("d,N,dim,shift", [(2, 5, 1, None), (3, 3, 1, None),
                                           (2, 4, 1, (1, 0, 1, 1)), (2, 3, 2, (3, 1, 2))])
def test_bmo_forms_equal_per_cube_loops(d, N, dim, shift, rng):
    """The scale-by-scale forms against per-cube loops over labels: the
    coefficient form bit for bit, the operator form, whose cube means come
    from the tree walk where the loop averages cells, within the tolerance
    model at the scale of the largest block of b."""
    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    b = random_symbol(sys, rng)
    form_b, mass = 0.0, {}
    for k in range(N - 1, -1, -1):
        for cube in sys.cubes_by_scale[k]:
            total = 0.0
            for color in range(1, sys.n_colors + 1):
                total += abs(b.blocks[sys.position(HaarIndex(cube, color)), 0, 0]) ** 2
            if k < N - 1:
                total += sum(mass[kid] for kid in sys.children(cube))
            mass[cube] = total
            form_b = max(form_b, float(np.sqrt(total / sys.measure(cube))))
    assert bmo_dyadic(sys, b).coefficient == form_b
    b = random_symbol(sys, rng, blockdim=2)
    f = b.function()
    best = 0.0
    for k in range(N):
        sv = np.linalg.svd((f - expectation(sys, f, k)).values, compute_uv=False)[:, 0] ** 2
        for cube in sys.cubes_by_scale[k]:
            best = max(best, float(np.sqrt(sv[sys.cells_of(cube)].mean())))
    assert abs(bmo_operator(sys, b) - best) <= model_bound(sys.n_cells, _cell_norm_max(f))


def test_functionals_at_depth_15_walk_the_tree(rng):
    """At d = 2 depth 15 the basis table would take 8.6 GB: the Besov and BMO
    functionals and the transforms walk the tree, build no `basis_matrix`,
    and peak at no more than 100 MB together; the round trip holds within
    the model."""
    import tracemalloc

    sys = build_system(DyadicParams(2, 15))
    b = random_symbol(sys, rng)
    tracemalloc.start()
    try:
        besov_diffs(sys, b, (1.0, 2.0, np.inf))
        besov_osc(sys, b, 2.0)
        bmo_dyadic(sys, b)
        bmo_operator(sys, b)
        f = b.function()
        back = Symbol.from_function(sys, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys._basis is None and peak <= 100 * 2**20
    assert np.abs(back.blocks - b.blocks).max() <= model_bound(sys.n_cells, np.abs(f.values).max())


def test_scalar_blocks_take_no_svd(monkeypatch, rng):
    """A 1 x 1 block's singular value is its modulus: the forms of a scalar
    symbol take no SVD of a stack of 1 x 1 blocks, block symbols still do."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    sys = build_system(DyadicParams(2, 4))
    for m in (1, 2):
        b = random_symbol(sys, rng, blockdim=m)
        shapes.clear()
        besov_haars(sys, b, (1.0, 2.0, np.inf))
        besov_diffs(sys, b, (1.0, 2.0, np.inf))
        besov_osc(sys, b, 2.0)
        bmo_operator(sys, b)
        besov_continuums(b.function().values, (2.0,))
        assert set(shapes) == (set() if m == 1 else {(2, 2)})


def test_continuum_constant_zero():
    assert besov_continuums(np.full(16, 3.0 + 1j), (2,), dim=1) == [0.0]
    assert besov_continuums(np.full(16, 1.0), (1.5,), dim=2) == [0.0]


def test_continuum_adjacent_halves_increment():
    # the straddling-pair quadrature gains exactly 2 log 2 per refinement
    # doubling (the annulus constant of the jump across the midpoint)
    vals = np.zeros(64)
    vals[:32] = 1.0
    sq = [besov_continuums(vals, (2,), dim=1, refinement=r)[0] ** 2 for r in (2, 4, 8, 16)]
    for lo, hi in zip(sq, sq[1:]):
        assert hi > lo  # monotone under refinement
    assert sq[-1] - sq[-2] == pytest.approx(2 * np.log(2), abs=2e-4)


def test_continuum_homogeneous(rng):
    vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    [a] = besov_continuums(vals, (2,), dim=1)
    assert besov_continuums(3 * vals, (2,), dim=1)[0] == pytest.approx(3 * a, rel=1e-12)


def test_continuum_rejects_ragged():
    with pytest.raises(ValueError):
        besov_continuums(np.zeros(10), (2,), dim=2)


def test_adjacent_rejects_all_but_one_scalar_per_cell(rng):
    blocks = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
    # 64 entries = 2^6 cells at dim 1, but they are 16 blocks, not 64 scalars;
    # 63, 12, 0 and 32 (at dim 2) are 2^(depth dim) for no depth
    for vals, dim in ((blocks, 1), (np.ones((8, 8)), 2), (np.ones((64, 1)), 1),
                      (np.ones(63), 1), (np.ones(12), 1), (np.ones(32), 2), (np.ones(0), 1)):
        with pytest.raises(ValueError, match="one scalar per cell"):
            besov_haar_adjacents(vals, (2.0,), dim, 0)


def test_adjacent_matches_standard(rng):
    for dim, depth in ((1, 3), (2, 2)):
        sys = build_system(DyadicParams(2, depth, dim=dim))
        vals = rng.standard_normal(sys.n_cells) + 1j * rng.standard_normal(sys.n_cells)
        b = Symbol.from_function(sys, StepFunction(vals))
        for p, got in zip((1.5, 2.0), besov_haar_adjacents(vals, (1.5, 2.0), dim, 0)):
            assert got == pytest.approx(besov_haar(sys, b, p), rel=1e-10)


def test_homogeneity_and_kernel(rng):
    sys = build_system(DyadicParams(2, 3))
    b = random_symbol(sys, rng)
    scaled = Symbol(sys, {h: 2.0 * blk for h, blk in b.coeffs.items()},
                    2.0 * b.coarse_mean)
    for fn in (besov_haar, besov_diff):
        assert fn(sys, scaled, 1.7) == pytest.approx(2 * fn(sys, b, 1.7), rel=1e-12)
    const = Symbol(sys, {}, coarse_mean=np.array([[5.0]]))
    assert besov_haar(sys, const, 2) == 0.0
    assert besov_diff(sys, const, 2) == 0.0


def _besov_haar_loop(sys, b, p):
    """The per-coefficient reference: one SVD per block, terms summed in order
    (at p = inf, the largest term; 0 for the empty symbol)."""
    total = 0.0
    for h, block in b.coeffs.items():
        sv = np.linalg.svd(block, compute_uv=False)
        lp = float(sv[0]) if p == np.inf else float((np.sum(sv ** p) / block.shape[0]) ** (1.0 / p))
        term = sys.measure(h.cube) ** -0.5 * lp
        total = max(total, term) if p == np.inf else total + term ** p
    return total if p == np.inf else float(total ** (1.0 / p))


@pytest.mark.parametrize("p", [0.5, 1, 2, 3, np.inf])
@pytest.mark.parametrize("d,N,dim", [(2, 6, 1), (3, 4, 1), (2, 3, 2)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_besov_haar_matches_block_loop_within_the_model(rng, d, N, dim, m, p):
    sys = build_system(DyadicParams(d, N, dim))
    symbols = [random_symbol(sys, rng, blockdim=m),
               random_symbol(sys, rng, blockdim=m, scales={0, N - 1}),
               Symbol(sys, {}, blockdim=m)]
    for b in symbols:
        assert_within_model([besov_haar(sys, b, p)], [_besov_haar_loop(sys, b, p)],
                            sys.dim_basis - 1, [p])
    assert besov_haar(sys, symbols[-1], p) == 0.0


@pytest.mark.parametrize("dim,depth", [(1, 4), (2, 2)])
def test_adjacent_repeat_call_is_stable(rng, dim, depth):
    vals = rng.standard_normal(2 ** (depth * dim)) + 1j * rng.standard_normal(2 ** (depth * dim))
    for mask in range(2 ** dim):
        first = besov_haar_adjacents(vals, (1.5,), dim, mask)
        assert besov_haar_adjacents(vals, (1.5,), dim, mask) == first


def _adjacent_cell_terms(vals, dim, mask, depth):
    """The terms |Q|^{-1/2} |<f, h_Q^eta>| of one shifted lattice, in order.

    At scale k every cube edge and half edge is a multiple of 2^-(k+1)/3, so on
    the refinement to 3 * 2^depth cells per axis each one is a cell edge: the
    coefficients are plain signed cell sums, cubes and colours by explicit loops.
    """
    n = 2**depth
    fine = np.asarray(vals, dtype=complex).reshape([n] * dim, order="F")
    for t in range(dim):
        fine = np.repeat(fine, 3, axis=t)
    terms = []
    for k in range(depth):
        side = 3 * 2 ** (depth - k)  # cube side in fine cells
        meas = 2.0 ** (-k * dim)
        corners = []
        for t in range(dim):
            # variant 1 sits 2/3 of a cube to the right at even scales, 1/3 at odd
            off = (2 if k % 2 == 0 else 1) * side // 3 if (mask >> t) & 1 else 0
            corners.append([off + m * side for m in range(-1, 2**k + 1)
                            if off + m * side >= 0 and off + (m + 1) * side <= 3 * n])
        for corner in itertools.product(*corners):
            for eta in range(1, 2**dim):
                coeff = 0j
                for cell in itertools.product(*(range(c, c + side) for c in corner)):
                    right = [(eta >> t) & 1 and cell[t] - corner[t] >= side // 2
                             for t in range(dim)]
                    coeff += (-1) ** sum(right) * fine[cell]
                coeff *= (1.0 / (3 * n)) ** dim * meas ** -0.5
                terms.append(abs(coeff) / meas**0.5)
    return terms


@pytest.mark.parametrize("dim,depth", [(1, 5), (2, 3), (3, 2)])
def test_adjacent_matches_refined_cell_loop(rng, dim, depth):
    vals = rng.standard_normal(2 ** (depth * dim)) + 1j * rng.standard_normal(2 ** (depth * dim))
    for mask in range(2**dim):
        terms = _adjacent_cell_terms(vals, dim, mask, depth)
        ps = (1.5, 2.0, 3.0)
        for p, got in zip(ps, besov_haar_adjacents(vals, ps, dim, mask)):
            want = sum(t**p for t in terms) ** (1 / p)
            assert got == pytest.approx(want, rel=1e-12), (mask, p)


def test_cached_weights_are_read_only():
    for arr in (_grid_weights(4, 1, 4), *_half_overlaps(1, 1, 3)):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


# p = inf: each form is the p -> inf limit of its sum, the largest term


def _cell_norm_max(f):
    """max over cells of the operator norm of the cell's block, one cell at a time."""
    return max(float(np.linalg.norm(f.values[c], 2)) for c in range(f.values.shape[0]))


def _inf_forms(sys, b):
    f = b.function()
    scales = sys.scale_of_row()
    arr = b.blocks
    diff = []
    for k in range(1, sys.params.depth + 1):
        coeffs = np.where((scales == k - 1)[:, None, None], arr, 0.0)
        diff.append(_cell_norm_max(sys.synthesize(coeffs)))
    osc = [_cell_norm_max(f - expectation(sys, f, k)) for k in range(sys.params.depth)]
    haar = [sys.measure(h.cube) ** -0.5 * float(np.linalg.norm(blk, 2))
            for h, blk in b.coeffs.items()]
    return {"haar": max(haar, default=0.0), "diff": max(diff), "osc": max(osc)}


def _forms(sys, b, p):
    return {"haar": besov_haar(sys, b, p), "diff": besov_diff(sys, b, p),
            "osc": besov_osc(sys, b, p)}


def _scaled(b, c):
    return Symbol(b.sys, {h: c * blk for h, blk in b.coeffs.items()}, c * b.coarse_mean,
                  blockdim=b.blockdim)


@pytest.mark.parametrize("d,N,dim,m", [(2, 4, 1, 1), (3, 3, 1, 2), (2, 2, 2, 1), (2, 3, 1, 3)])
def test_forms_at_inf_are_max_of_terms(rng, d, N, dim, m):
    sys = build_system(DyadicParams(d, N, dim))
    for b in (random_symbol(sys, rng, blockdim=m),
              random_symbol(sys, rng, blockdim=m, scales={N - 1})):
        want = _inf_forms(sys, b)
        got = _forms(sys, b, np.inf)
        for name in want:
            assert got[name] == pytest.approx(want[name], rel=1e-12), name
    assert besov_haar(sys, Symbol(sys, {}, blockdim=m), np.inf) == 0.0


@pytest.mark.parametrize("d,N,dim", [(2, 4, 1), (3, 3, 1), (2, 2, 2)])
def test_forms_at_inf_are_homogeneous(rng, d, N, dim):
    sys = build_system(DyadicParams(d, N, dim))
    b = random_symbol(sys, rng)
    base = _forms(sys, b, np.inf)
    for c in (0.01, 100.0):
        scaled = _forms(sys, _scaled(b, c), np.inf)
        for name in base:
            assert scaled[name] == pytest.approx(c * base[name], rel=1e-12), name


@pytest.mark.parametrize("d,N,dim,m", [(2, 4, 1, 1), (3, 3, 1, 2), (2, 2, 2, 1)])
def test_forms_at_64_near_inf(rng, d, N, dim, m):
    # each form sums fewer than n = m * n_cells**2 terms of at most its p = inf
    # value, and its largest term is at least n**(-1/p) times that value
    sys = build_system(DyadicParams(d, N, dim))
    n = m * sys.n_cells ** 2
    b = random_symbol(sys, rng, blockdim=m)
    at_inf = _forms(sys, b, np.inf)
    at_64 = _forms(sys, b, 64.0)
    for name in at_inf:
        ratio = at_64[name] / at_inf[name]
        assert n ** (-1 / 64) <= ratio <= n ** (1 / 64), name


def _level_norm_max(bhat, level, word):
    """max over levels k of the operator norm of d_k b, one level at a time."""
    best = 0.0
    for k in {level(a) for a in bhat}:
        dk = sum(c * word(a) for a, c in bhat.items() if level(a) == k)
        best = max(best, float(np.linalg.norm(dk, 2)))
    return best


def _step_and_word_forms(rng):
    """name -> (form(c, p) of c times a fixed input, its p = inf value by a max loop)."""
    v1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    v2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    blocks = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
    car = {A: complex(*rng.standard_normal(2)) for A in car_subsets(3) if A}
    ten = {a: complex(*rng.standard_normal(2)) for a in tensor_indices(2, 2) if a}
    return {
        "adjacent-dim1": (lambda c, p: besov_haar_adjacents(c * v1, (p,), 1, 1)[0],
                          max(_adjacent_cell_terms(v1, 1, 1, 4))),
        "adjacent-dim2": (lambda c, p: besov_haar_adjacents(c * v2, (p,), 2, 2)[0],
                          max(_adjacent_cell_terms(v2, 2, 2, 3))),
        "continuum-dim1": (lambda c, p: besov_continuums(c * v1, (p,), dim=1)[0],
                           max(abs(x - y) for x in v1 for y in v1)),
        "continuum-blocks": (lambda c, p: besov_continuums(c * blocks, (p,), dim=2)[0],
                             max(float(np.linalg.norm(x - y, 2)) for x in blocks for y in blocks)),
        "car": (lambda c, p: besov_cars({A: c * z for A, z in car.items()}, 3, (p,))[0],
                _level_norm_max(car, max, lambda A: car_word(A, 3))),
        "tensor": (lambda c, p: besov_tensors({a: c * z for a, z in ten.items()}, 2, 2, (p,))[0],
                   _level_norm_max(ten, len, lambda a: tensor_word(a, 2, 2))),
    }


_STEP_AND_WORD = ["adjacent-dim1", "adjacent-dim2", "continuum-dim1", "continuum-blocks",
                  "car", "tensor"]


@pytest.mark.parametrize("name", _STEP_AND_WORD)
def test_step_and_word_forms_at_inf_are_max_of_terms(rng, name):
    form, want = _step_and_word_forms(rng)[name]
    assert form(1.0, np.inf) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", _STEP_AND_WORD)
def test_step_and_word_forms_at_inf_are_homogeneous(rng, name):
    form, _ = _step_and_word_forms(rng)[name]
    assert form(100.0, np.inf) == pytest.approx(100.0 * form(1.0, np.inf), rel=1e-12)


def test_step_and_word_forms_empty_and_nonpositive_p():
    # no term at all: depth 1 holds no shifted cube, and the symbols are empty
    assert besov_haar_adjacents(np.arange(2.0), (np.inf,), 1, 1) == [0.0]
    assert besov_cars({}, 3, (np.inf,)) == [0.0]
    assert besov_tensors({}, 2, 2, (np.inf,)) == [0.0]
    assert besov_continuums(np.ones(4), (np.inf,)) == [0.0]
    for p in (0, -1.5):
        with pytest.raises(ValueError, match="p must be positive"):
            besov_haar_adjacents(np.ones(4), (p,), 1, 0)
        with pytest.raises(ValueError, match="p must be positive"):
            besov_continuums(np.ones(4), (p,))
        with pytest.raises(ValueError, match="p must be positive"):
            besov_cars({(1,): 1.0}, 3, (p,))
        with pytest.raises(ValueError, match="p must be positive"):
            besov_tensors({((1, 2),): 1.0}, 2, 1, (p,))


# -- plural forms: every p from one decomposition, bit for bit the per-p loop

PLURAL_PS = (0.5, 1, 2, 4, np.inf)


def _besov_diff_loop(sys, b, p):
    """Per-p reference: each d_k b from `martingale_difference`, its cell SVDs
    taken afresh."""
    f = b.function()
    total = 0.0
    for k in range(1, sys.params.depth + 1):
        sv = np.linalg.svd(martingale_difference(sys, f, k).values, compute_uv=False)
        if p == np.inf:
            total = max(total, float(sv[:, 0].max()))
            continue
        lp = float((sys.cell_measure * ((sv ** p).sum(axis=1) / b.blockdim).sum()) ** (1.0 / p))
        total += sys.d_eff ** k * lp ** p
    return total if p == np.inf else float(total ** (1.0 / p))


def _besov_continuum_loop(values, p, dim):
    """Per-p reference: the cell-pair differences decomposed afresh."""
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None, None]
    W = _grid_weights(round(values.shape[0] ** (1.0 / dim)), dim, 4)
    sv = np.linalg.svd(values[:, None] - values[None, :], compute_uv=False)
    if p == np.inf:
        return float(sv[..., 0].max())
    return float((W * ((sv ** p).sum(axis=-1) / values.shape[1])).sum() ** (1.0 / p))


def _besov_adjacent_loop(values, p, dim, mask, depth):
    """Per-p reference: the shifted coefficients contracted afresh, summed in order."""
    grid = np.asarray(values, dtype=complex).reshape([2**depth] * dim, order="F")
    total = 0.0
    for k in range(depth):
        halves = [_half_overlaps(k, (mask >> t) & 1, depth) for t in range(dim)]
        coeffs = []
        for eta in range(1, 2**dim):
            c = grid
            for t in range(dim):
                L, R = halves[t]
                c = np.tensordot(c, L - R if (eta >> t) & 1 else L + R, axes=([0], [1]))
            coeffs.append(c)
        meas = 2.0 ** (-k * dim)
        coeff = np.stack(coeffs, axis=-1).ravel() * meas**-0.5
        for term in (np.abs(coeff) / meas**0.5).tolist():
            total = max(total, term) if p == np.inf else total + term ** p
    return total if p == np.inf else float(total ** (1.0 / p))


@pytest.mark.parametrize("d,N,dim,m", [(2, 5, 1, 1), (3, 3, 1, 2), (2, 3, 2, 1)])
def test_besov_haars_and_diffs_equal_per_p_loops(rng, d, N, dim, m):
    sys = build_system(DyadicParams(d, N, dim))
    for b in (random_symbol(sys, rng, blockdim=m), Symbol(sys, {}, blockdim=m)):
        # n: the Haar blocks, and the cells of each d_k b's L_p sum
        assert_within_model(besov_haars(sys, b, PLURAL_PS),
                            [_besov_haar_loop(sys, b, p) for p in PLURAL_PS],
                            sys.dim_basis - 1, PLURAL_PS)
        assert_within_model(besov_diffs(sys, b, PLURAL_PS),
                            [_besov_diff_loop(sys, b, p) for p in PLURAL_PS],
                            sys.n_cells, PLURAL_PS)


@pytest.mark.parametrize("dim,depth,blockdim", [(1, 4, 1), (2, 2, 1), (2, 2, 2)])
def test_besov_continuums_equal_per_p_loop(rng, dim, depth, blockdim):
    shape = (2 ** (depth * dim),) + ((blockdim, blockdim) if blockdim > 1 else ())
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert_within_model(besov_continuums(vals, PLURAL_PS, dim=dim),
                        [_besov_continuum_loop(vals, p, dim) for p in PLURAL_PS],
                        len(vals) ** 2, PLURAL_PS)


@pytest.mark.parametrize("dim,depth", [(1, 4), (2, 3)])
def test_besov_haar_adjacents_equal_per_p_loop(rng, dim, depth):
    vals = rng.standard_normal(2 ** (depth * dim)) + 1j * rng.standard_normal(2 ** (depth * dim))
    for mask in range(2**dim):
        assert_within_model(besov_haar_adjacents(vals, PLURAL_PS, dim, mask),
                            [_besov_adjacent_loop(vals, p, dim, mask, depth) for p in PLURAL_PS],
                            len(vals), PLURAL_PS)


def test_plural_forms_reject_any_nonpositive_p(rng):
    sys = build_system(DyadicParams(2, 3))
    b = random_symbol(sys, rng)
    V, fams = GridOperator(np.eye(8, dtype=complex), 1, 8), random_admissible_family(sys, rng)
    for ps in ((2.0, 0), (-1.0, 2.0), (-2.0,)):
        for form in (lambda: besov_haars(sys, b, ps), lambda: besov_diffs(sys, b, ps),
                     lambda: besov_continuums(np.ones(4), ps),
                     lambda: besov_haar_adjacents(np.ones(4), ps, 1, 0),
                     lambda: nwo_quantities(V, fams, ps),
                     lambda: [tq_separated(V, sys, np.ones(8), 1, p) for p in ps]):
            with pytest.raises(ValueError, match="p must be positive"):
                form()


@pytest.mark.parametrize("p", [True, False, "inf", "2", np.nan, None])
def test_every_form_refuses_a_p_that_is_not_a_number(rng, p):
    # one rule here and in `spectral`: an int or float > 0, or inf
    sys = build_system(DyadicParams(2, 3))
    b = random_symbol(sys, rng)
    V, fams = GridOperator(np.eye(8, dtype=complex), 1, 8), random_admissible_family(sys, rng)
    forms = [lambda: block_norms(np.eye(2)[None], (p,)),
             lambda: nwo_quantities(V, fams, (2.0, p)),
             lambda: tq_separated(V, sys, np.ones(8), 1, p),
             lambda: besov_haar(sys, b, p), lambda: besov_diff(sys, b, p),
             lambda: besov_osc(sys, b, p),
             lambda: besov_continuums(np.ones(4), (p,)),
             lambda: besov_haar_adjacents(np.ones(4), (2.0, p), 1, 0),
             lambda: besov_cars({(1,): 1.0}, 3, (p,)),
             lambda: schatten_norm(np.eye(2), p), lambda: schatten_norms(np.eye(2), (1.0, p))]
    for form in forms:
        with pytest.raises(ValueError, match="p must be positive"):
            form()


def test_every_form_takes_an_int_float_or_inf_p(rng):
    sys = build_system(DyadicParams(2, 3))
    b = random_symbol(sys, rng)
    for p in (2, np.int64(2), np.float64(2.0)):
        assert besov_haar(sys, b, p) == besov_haar(sys, b, 2.0)
        assert schatten_norm(np.diag([3.0, 4.0]), p) == 5.0
    # a float32 p is read as the float64 it equals: its root 1/p is not rounded to float32
    for p in (3, np.int64(3), np.float32(3.0)):
        assert besov_haar(sys, b, p) == besov_haar(sys, b, 3.0)
        assert besov_continuums(np.arange(4.0), (p,)) == besov_continuums(np.arange(4.0), (3.0,))
        assert schatten_norm(np.diag([3.0, 4.0]), p) == schatten_norm(np.diag([3.0, 4.0]), 3.0)
    assert schatten_norm(np.diag([3.0, 4.0]), np.inf) == 4.0


def test_besov_haar_of_rank_one_blocks_at_small_p(rng):
    # every Haar block u v^H is rank one: ||b_Q||_p = |u||v| 2^(-1/p) exactly
    sys = build_system(DyadicParams(2, 5))
    u, v = (rng.standard_normal((sys.dim_basis, 2)) + 1j * rng.standard_normal((sys.dim_basis, 2))
            for _ in range(2))
    b = Symbol.from_blocks(sys, u[:, :, None] * v[:, None, :].conj())
    lps = (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))[1:] / 2 ** (1 / 0.5)
    w = np.array([sys.scale_measure(s) ** -0.5 for s in sys.scale_of_row()[1:]])
    want = np.sum((w * lps) ** 0.5) ** 2
    assert_within_model([besov_haar(sys, b, 0.5)], [want], sys.dim_basis - 1, [0.5])


@pytest.mark.parametrize("dim,mask", [(1, 2), (1, 5), (1, -1), (1, True), (1, 1.0),
                                      (1, np.int64(2)), (2, 4)])
def test_adjacent_lattices_refuse_a_mask_outside_the_variants(dim, mask):
    # dim has the variants 0..2^dim - 1; no other mask aliases one of them
    with pytest.raises(ValueError, match=f"variant_mask must be an integer in 0..{2**dim - 1}"):
        besov_haar_adjacents(np.ones(4**dim), (2.0,), dim, mask)


@pytest.mark.parametrize("shape", [(4, 2, 3), (4, 2), (4, 1, 1, 1)])
def test_continuum_form_refuses_values_that_are_not_square_blocks(shape):
    with pytest.raises(ValueError, match=r"values must be \(cells,\) or \(cells, m, m\)"):
        besov_continuums(np.ones(shape), (2.0,))


@pytest.mark.parametrize("dim", [0, -1, True, 1.5])
def test_grid_forms_refuse_a_dim_that_is_not_a_positive_integer(dim):
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        besov_haar_adjacents(np.ones(4), (2.0,), dim, 0)
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        besov_continuums(np.ones(4), (2.0,), dim=dim)

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from parahaar.dyadic import (CoveringCube, CubeId, DyadicParams, GridShift,
                             HaarIndex, StepFunction, build_system, cover_cube,
                             expectation, haar_function, martingale_difference,
                             DILATION_BOUND, LENGTH_RATIO_BOUND)
from parahaar.checks import model_bound
from parahaar.paraproducts import Symbol


def test_build_enumeration_d2():
    sys = build_system(DyadicParams(2, 2))
    assert [len(level) for level in sys.cubes_by_scale] == [1, 2, 4]
    top = sys.cubes_by_scale[0][0]
    kids = sys.children(top)
    assert np.array_equal(sys.cells_of(kids[0]), [0, 1])
    assert np.array_equal(sys.cells_of(kids[1]), [2, 3])


def test_build_thirds_d3():
    sys = build_system(DyadicParams(3, 1))
    kids = sys.children(CubeId(0, (0,)))
    assert [sys.measure(k) for k in kids] == [pytest.approx(1 / 3)] * 3


def test_invalid_params():
    with pytest.raises(ValueError):
        DyadicParams(1, 2)
    with pytest.raises(ValueError):
        DyadicParams(2, 0)
    with pytest.raises(ValueError):
        DyadicParams(3, 2, dim=2)
    with pytest.raises(ValueError):
        build_system(DyadicParams(2, 3), GridShift((1, 0)))


def test_shifted_scale2_translation():
    # digit at slot 2 translates the scale-2 grid by one finest cell (2^-3)
    sh = build_system(DyadicParams(2, 3), GridShift((0, 0, 1)))
    std = build_system(DyadicParams(2, 3))
    shifted = sorted(tuple(sorted(sh.cells_of(c))) for c in sh.cubes_by_scale[2])
    translated = sorted(tuple(sorted((std.cells_of(c) + 1) % 8)) for c in std.cubes_by_scale[2])
    assert shifted == translated


def test_shifted_nesting_exhaustive():
    for word in range(8):
        omega = GridShift(tuple((word >> s) & 1 for s in range(3)))
        sys = build_system(DyadicParams(2, 3), omega)
        for k in range(3):
            for cube in sys.cubes_by_scale[k]:
                union = np.sort(np.concatenate([sys.cells_of(c) for c in sys.children(cube)]))
                assert np.array_equal(union, sys.cells_of(cube))


def test_haar_values_d2():
    sys = build_system(DyadicParams(2, 1))
    v = haar_function(sys, HaarIndex(CubeId(0, (0,)), 1)).scalar()
    assert np.array_equal(v, [-1.0, 1.0])


def test_haar_values_d3():
    sys = build_system(DyadicParams(3, 1))
    v = haar_function(sys, HaarIndex(CubeId(0, (0,)), 1)).scalar()
    om = np.exp(2j * np.pi / 3)
    assert np.allclose(v, [om, om**2, 1.0], atol=1e-15)


def test_haar_unit_mean_zero(rng):
    for d, N, dim in ((2, 3, 1), (3, 2, 1), (5, 1, 1), (2, 2, 2)):
        sys = build_system(DyadicParams(d, N, dim=dim))
        for h in sys.haar_indices:
            v = sys.haar_values(h)
            assert abs(v.sum() * sys.cell_measure) < 1e-13
            assert abs((np.abs(v) ** 2).sum() * sys.cell_measure - 1) < 1e-13


def test_haar_color_out_of_range():
    sys = build_system(DyadicParams(2, 1))
    with pytest.raises(ValueError):
        sys.haar_values(HaarIndex(CubeId(0, (0,)), 2))


def test_product_rule_2d_xor():
    # same-cube products follow the bitmask group: H^s H^t = |I|^{-1/2} H^{s xor t}
    sys = build_system(DyadicParams(2, 2, dim=2))
    cube = CubeId(0, (0, 0))
    meas = sys.measure(cube)
    for s in range(1, 4):
        hs = sys.haar_values(HaarIndex(cube, s))
        for t in range(1, 4):
            ht = sys.haar_values(HaarIndex(cube, t))
            if s == t:
                target = (np.abs(hs) > 0) / meas
            else:
                target = sys.haar_values(HaarIndex(cube, s ^ t)) * meas**-0.5
            assert np.abs(hs * ht - target).max() < 1e-12


def test_expectation_fixes_constants():
    sys = build_system(DyadicParams(2, 2))
    f = StepFunction(np.full(4, 2.5 + 1j))
    for k in range(3):
        assert np.allclose(expectation(sys, f, k).values, f.values)


def test_expectation_kills_haar():
    sys = build_system(DyadicParams(2, 3))
    h = haar_function(sys, HaarIndex(CubeId(1, (1,)), 1))
    for k in (0, 1):
        assert np.abs(expectation(sys, h, k).values).max() < 1e-14


def test_expectation_quarters():
    sys = build_system(DyadicParams(2, 2))
    f = StepFunction(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(expectation(sys, f, 1).scalar().real, [1.5, 1.5, 3.5, 3.5])


def test_expectation_scale_bounds():
    sys = build_system(DyadicParams(2, 2))
    f = StepFunction(np.zeros(4))
    with pytest.raises(ValueError):
        expectation(sys, f, 3)
    with pytest.raises(ValueError):
        martingale_difference(sys, f, 0)


@pytest.mark.parametrize("n", [8, 2])
def test_expectation_rejects_a_cell_count_mismatch(n):
    # 8 values on a 4-cell system once came back with 4 uninitialised ones
    sys = build_system(DyadicParams(2, 2))
    f = StepFunction(np.arange(float(n)))
    with pytest.raises(ValueError, match=f"{n} cells, the system 4"):
        expectation(sys, f, 1)
    with pytest.raises(ValueError, match=f"{n} cells, the system 4"):
        martingale_difference(sys, f, 1)


def test_coeffs_rejects_a_cell_count_mismatch():
    sys = build_system(DyadicParams(2, 2))
    with pytest.raises(ValueError, match="8 cells, the system 4"):
        sys.coeffs(StepFunction(np.arange(8.0)))


def test_difference_orthogonality():
    sys = build_system(DyadicParams(2, 3))
    h = haar_function(sys, HaarIndex(CubeId(1, (0,)), 1))
    for k in range(1, 4):
        dk = martingale_difference(sys, h, k)
        if k == 2:
            assert np.allclose(dk.values, h.values)
        else:
            assert np.abs(dk.values).max() < 1e-14


def test_reconstruction(rng):
    sys = build_system(DyadicParams(3, 3))
    f = StepFunction(rng.standard_normal(27) + 1j * rng.standard_normal(27))
    total = expectation(sys, f, 0).values.copy()
    for k in range(1, 4):
        total += martingale_difference(sys, f, k).values
    assert np.abs(total - f.values).max() < 1e-12


def test_transform_single_coefficient():
    sys = build_system(DyadicParams(2, 2))
    h = HaarIndex(CubeId(1, (0,)), 1)
    b = Symbol.from_function(sys, haar_function(sys, h))
    assert abs(b.coarse_mean[0, 0]) < 1e-14
    for key, val in zip(sys.haar_indices, b.blocks[1:]):
        expect = 1.0 if key == h else 0.0
        assert abs(val[0, 0] - expect) < 1e-13


def test_transform_constant():
    sys = build_system(DyadicParams(2, 2))
    b = Symbol.from_function(sys, StepFunction(np.ones(4)))
    assert abs(b.coarse_mean[0, 0] - 1.0) < 1e-14
    assert all(abs(v[0, 0]) < 1e-14 for v in b.blocks[1:])


def test_roundtrip_parseval(rng):
    sys = build_system(DyadicParams(3, 3))
    f = StepFunction(rng.standard_normal(27) + 1j * rng.standard_normal(27))
    b = Symbol.from_function(sys, f)
    g = Symbol(sys, b.coeffs, b.coarse_mean).function()
    assert np.abs(g.values - f.values).max() < 1e-12
    coeffs = sys.coeffs(f)
    lhs = (np.abs(coeffs) ** 2).sum()
    rhs = (np.abs(f.values) ** 2).sum() * sys.cell_measure
    assert abs(lhs - rhs) < 1e-12 * max(1, rhs)


def test_block_roundtrip(rng):
    sys = build_system(DyadicParams(2, 2, dim=2))
    f = StepFunction(rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2)))
    b = Symbol.from_function(sys, f)
    g = Symbol(sys, b.coeffs, b.coarse_mean).function()
    assert np.abs(g.values - f.values).max() < 1e-12


def test_cover_examples():
    # the shifted grid offers [1/6, 2/3) at scale 1, beating the unit cube
    q = cover_cube([0.4], 0.2)
    assert float(q.lower[0]) <= 0.4 and 0.6 <= float(q.lower[0] + q.side)
    assert float(q.side) <= 6 * 0.2
    q2 = cover_cube([0.1], 0.1)
    assert float(q2.side) <= 0.6 + 1e-15
    # a grid cube covers itself
    q3 = cover_cube([0.25], 0.25)
    assert float(q3.side) == 0.25 and float(q3.lower[0]) == 0.25


def test_cover_random(rng):
    for dim in (1, 2):
        for _ in range(200):
            side = float(rng.uniform(0.002, 0.3))
            lo = [float(rng.uniform(0, 1 - side)) for _ in range(dim)]
            q = cover_cube(lo, side)
            assert float(q.side) <= LENGTH_RATIO_BOUND * side + 1e-12
            for t in range(dim):
                assert float(q.lower[t]) <= lo[t] + 1e-12
                assert lo[t] + side <= float(q.lower[t] + q.side) + 1e-12
                center = lo[t] + side / 2
                assert float(q.lower[t]) >= center - DILATION_BOUND * side / 2 - 1e-12
                assert float(q.lower[t] + q.side) <= center + DILATION_BOUND * side / 2 + 1e-12


def _cover_cube_per_grid(lower, side, dim):
    """The per-grid reference: at each scale, from the finest up, the first
    grid in number order whose cell holds B on every axis."""
    from fractions import Fraction

    from parahaar.dyadic import CoveringCube, _offset_at

    lo = [Fraction(str(x)) for x in lower]
    L = Fraction(str(side))
    k = 0
    while Fraction(1, 2 ** (k + 1)) >= L:
        k += 1
    for scale in range(k, -5, -1):
        h = Fraction(1, 2**scale) if scale >= 0 else Fraction(2**-scale)
        for grid in range(2**dim):
            offs = [_offset_at(scale, (grid >> t) & 1) for t in range(dim)]
            idx = [(lo[t] - offs[t]) // h for t in range(dim)]
            if all(lo[t] + L <= offs[t] + (idx[t] + 1) * h for t in range(dim)):
                return CoveringCube(grid, scale, tuple(idx),
                                    tuple(offs[t] + idx[t] * h for t in range(dim)), h)
    raise AssertionError("no covering cube")


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cover_equals_per_grid_loop(rng, dim):
    for _ in range(300):
        side = float(rng.uniform(0.001, 0.3))
        lo = [float(rng.uniform(0, 1 - side)) for _ in range(dim)]
        assert cover_cube(lo, side) == _cover_cube_per_grid(lo, side, dim)
    # the examples above, on every axis
    for lo, side in (([0.4] * dim, 0.2), ([0.1] * dim, 0.1), ([0.301] * dim, 0.09)):
        assert cover_cube(lo, side) == _cover_cube_per_grid(lo, side, dim)


def test_cover_equals_per_grid_loop_on_the_covering_draws():
    # the covering suite's 2000 draws, in its order
    from parahaar.checks import _covering_draws

    rng = np.random.default_rng(20240805)
    for dim in (1, 2):
        for lo, side, q in _covering_draws(dim, 1000, rng):
            expect = _cover_cube_per_grid(lo, side, dim)
            assert q == expect
            assert [type(i) for i in q.index] == [type(i) for i in expect.index]


@pytest.mark.parametrize("lo,side", [
    ([0.0], 1.0), ([0.0], 0.5), ([0.5], 0.5), ([0.25, 0.75], 0.25), ([0.0, 0.0], 1e-9),
    ([1 - 2.0**-30], 2.0**-30), ([0.1, 0.2, 0.3], 0.1), ([0.7], 0.3), ([1 / 3], 1 / 3),
    ([np.float64(0.123456789012345)], np.float64(0.004)), ([0], 1),
    ([Fraction(1, 3), Fraction(2, 7)], Fraction(1, 9)), ([0.2, Fraction(1, 5)], 0.05),
])
def test_cover_edge_cases_equal_per_grid_loop(lo, side):
    # exact powers of two, the window's edges, tiny sides, ints, numpy floats
    # and Fractions, which are taken as they are
    assert cover_cube(lo, side) == _cover_cube_per_grid(lo, side, len(lo))


def test_cover_reads_the_decimal_a_float_prints():
    # [0.05, 0.25) as printed ends on the grid line 1/4; the binary floats
    # 0.05 and 0.2 add up to a hair more, which only the scale-1 cube covers
    assert cover_cube([0.05], 0.2) == CoveringCube(0, 2, (0,), (Fraction(0),), Fraction(1, 4))
    assert cover_cube([Fraction(0.05)], Fraction(0.2)).scale == 1
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not a finite number"):
            cover_cube([0.1], bad)
    with pytest.raises(ValueError, match="positive"):
        cover_cube([0.1], 0.0)


def test_cover_outside_window():
    with pytest.raises(ValueError):
        cover_cube([0.9], 0.2)
    with pytest.raises(ValueError, match="got none"):
        cover_cube([], 0.2)


def test_cover_takes_its_dimension_from_lower():
    # a box in the plane is covered on both axes, not by the cube [3/32, 1/8)
    # that covers its first coordinate alone
    q = cover_cube([0.1, 0.95], 0.01)
    assert len(q.index) == len(q.lower) == 2
    assert q == _cover_cube_per_grid([0.1, 0.95], 0.01, 2)
    for t, x in enumerate((0.1, 0.95)):
        assert float(q.lower[t]) <= x and x + 0.01 <= float(q.lower[t] + q.side)


def test_cover_contained_cube_count():
    # the covering cube holds at most floor(c)^dim same-scale grid cubes
    q = cover_cube([0.301], 0.09)
    per = float(q.side) / 0.09
    assert per <= LENGTH_RATIO_BOUND + 1e-12


def test_random_grid_shift(rng):
    sh = GridShift.random(4, 2, rng)
    assert len(sh.omega) == 4 and all(0 <= w < 4 for w in sh.omega)
    sys = build_system(DyadicParams(2, 4, dim=2), GridShift.random(4, 2, rng))
    B = sys.basis_matrix
    G = B.conj().T @ B * sys.cell_measure
    assert np.abs(G - np.eye(sys.dim_basis)).max() < 1e-12


def test_difference_operator_algebra(rng):
    # d_k d_j = delta_{kj} d_k, and constants are annihilated
    sys = build_system(DyadicParams(3, 3))
    f = StepFunction(rng.standard_normal(27) + 1j * rng.standard_normal(27))
    const = StepFunction(np.full(27, 2.0 - 1j))
    for k in range(1, 4):
        assert np.abs(martingale_difference(sys, const, k).values).max() < 1e-14
        dk = martingale_difference(sys, f, k)
        for j in range(1, 4):
            dj_dk = martingale_difference(sys, dk, j)
            if j == k:
                assert np.abs(dj_dk.values - dk.values).max() < 1e-12
            else:
                assert np.abs(dj_dk.values).max() < 1e-12


def _strict_ancestor_support(sys, cube):
    """Coarse slot plus the slots of cubes whose cells strictly contain `cube`'s."""
    cells = set(sys.cells_of(cube).tolist())
    support = np.zeros(sys.dim_basis, dtype=bool)
    support[0] = True
    for h in sys.haar_indices:
        if h.cube.scale < cube.scale and cells <= set(sys.cells_of(h.cube).tolist()):
            support[sys.position(h)] = True
    return support


@pytest.mark.parametrize("d,N,dim,shift", [
    (2, 4, 1, None), (3, 3, 1, None), (5, 2, 1, None), (2, 3, 2, None), (2, 3, 2, (3, 1, 2)),
])
def test_cube_averages_on_tree_support(d, N, dim, shift):
    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    avg = sys.cube_average_matrix
    rows, cols, values = sys.cube_averages
    B = sys.basis_matrix
    assert avg.shape == (len(sys.haar_indices), sys.dim_basis)
    assert values.dtype == B.dtype and rows.shape == cols.shape == values.shape
    for r, h in enumerate(sys.haar_indices):
        support = _strict_ancestor_support(sys, h.cube)
        assert support.sum() == 1 + h.cube.scale * sys.n_colors
        dense = B[sys.cells_of(h.cube)].mean(axis=0)
        assert np.array_equal(avg[r, support], dense[support])
        assert np.all(avg[r, ~support] == 0)
        # the flat table holds the support of this row once each, with the
        # dense mean's values within the tolerance model: a mean of the
        # cube's cells against the constant it averages
        mine = rows == sys.position(h)
        assert np.array_equal(np.sort(cols[mine]), np.flatnonzero(support))
        n = len(sys.cells_of(h.cube))
        assert np.abs(values[mine] - dense[cols[mine]]).max() <= model_bound(n, np.abs(dense).max())
    assert rows.size == sum(1 + h.cube.scale * sys.n_colors for h in sys.haar_indices)


@pytest.mark.parametrize("d,N,dim,shift", [(3, 3, 1, None), (2, 3, 2, (3, 1, 2))])
def test_scale_layouts_built_once_read_only(d, N, dim, shift):
    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    layouts = sys.scale_layouts
    assert sys.scale_layouts is layouts and len(layouts) == N
    for s, (cells, cols, rows) in enumerate(layouts):
        cubes = sys.cubes_by_scale[s]
        for q, cube in enumerate(cubes):
            support = _strict_ancestor_support(sys, cube)
            assert sorted(rows[q, :-sys.n_colors].tolist()) == np.flatnonzero(support).tolist()
            assert rows[q, -sys.n_colors:].tolist() == cols[q].tolist()
        for a in (cells, cols, rows):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0


@pytest.mark.parametrize("d,N,dim,shift", [(3, 3, 1, None), (2, 4, 1, (1, 0, 1, 1)),
                                           (2, 3, 2, (3, 1, 2))])
def test_descendants_repeat_children(d, N, dim, shift):
    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    assert sys._descendants == {}  # nothing is built with the system
    for k in range(N + 1):
        for g in range(N + 1 - k):
            table = sys.descendants(k, g)
            assert sys.descendants(k, g) is table and not table.flags.writeable
            for K, ranks in zip(sys.cubes_by_scale[k], table):
                level = [K]
                for _ in range(g):
                    level = [kid for c in level for kid in _reference_children(sys, c)]
                assert [sys.cubes_by_scale[k + g][r] for r in ranks] == level
    with pytest.raises(ValueError):
        sys.descendants(1, N)


# References for the tables, written from the parameters and the shift alone:
# the per-cube cell ranges and the per-cube children loop.


def _reference_axis_count(sys, scale):
    return sys.params.d**scale if sys.params.dim == 1 else 2**scale


def _reference_offset(sys, t, scale):
    """Offset of the scale's grid on axis t, in finest cells."""
    if sys.shift is None:
        return 0
    N = sys.params.depth
    return sum(((sys.shift.omega[s] >> t) & 1) * 2 ** (N - s - 1) for s in range(scale, N))


def _reference_cells(sys, cube):
    dim = sys.params.dim
    per = sys.axis_cells // _reference_axis_count(sys, cube.scale)
    ranges = [(np.arange(per) + cube.index[t] * per + _reference_offset(sys, t, cube.scale))
              % sys.axis_cells for t in range(dim)]
    cells = ranges[0]
    for t in range(1, dim):
        cells = cells[:, None] + sys.axis_cells**t * ranges[t][None, :]
        cells = cells.ravel()
    return np.sort(cells.astype(np.int64))


def _reference_children(sys, cube):
    k = cube.scale
    dim = sys.params.dim
    count = _reference_axis_count(sys, k + 1)
    out = []
    if dim == 1:
        d = sys.params.d
        dig = sys.shift.omega[k] & 1 if sys.shift is not None else 0
        for q in range(d):
            out.append(CubeId(k + 1, ((cube.index[0] * d + dig + q) % count,)))
    else:
        digs = [0] * dim
        if sys.shift is not None:
            digs = [(sys.shift.omega[k] >> t) & 1 for t in range(dim)]
        for beta in range(2**dim):
            out.append(CubeId(k + 1, tuple((2 * cube.index[t] + digs[t] + ((beta >> t) & 1)) % count
                                           for t in range(dim))))
    return out


TABLE_CASES = [
    (2, 4, 1, None), (2, 4, 1, (1, 0, 1, 1)), (3, 3, 1, None), (5, 2, 1, None),
    (2, 3, 2, None), (2, 3, 2, (3, 1, 2)), (2, 2, 3, None), (2, 2, 3, (5, 6)),
]


@pytest.mark.parametrize("d,N,dim,shift", TABLE_CASES)
def test_tables_equal_reference_loops(d, N, dim, shift):
    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    layouts = sys.scale_layouts
    rank = {cube: r for cubes in sys.cubes_by_scale for r, cube in enumerate(cubes)}
    scales = [-1]
    for k in range(N + 1):
        cubes = sys.cubes_by_scale[k]
        assert len(cubes) == _reference_axis_count(sys, k) ** dim
        table = sys.cells_by_scale[k]
        assert not table.flags.writeable
        for r, cube in enumerate(cubes):
            ref = _reference_cells(sys, cube)
            assert np.array_equal(table[r], ref) and np.array_equal(sys.cells_of(cube), ref)
            assert sys.cube_rank(k, cube.index) == r
            assert sys.cube_index(k, r) == cube.index
            if k == N:
                continue
            kids = _reference_children(sys, cube)
            assert sys.descendants(k, 1)[r].tolist() == [rank[kid] for kid in kids]
            assert sys.children(cube) == kids
            cols = [sys.position(HaarIndex(cube, t)) for t in range(1, sys.n_colors + 1)]
            assert [sys.slot(k, r, t) for t in range(1, sys.n_colors + 1)] == cols
            assert layouts[k][1][r].tolist() == cols
            assert np.array_equal(layouts[k][0][r], ref)
            scales += [k] * sys.n_colors
        ranks = np.arange(len(cubes))
        assert np.array_equal(sys.cube_rank(k, sys.cube_index(k, ranks)), ranks)
    assert sys.scale_of_row().tolist() == scales == [-1] + [h.cube.scale for h in sys.haar_indices]
    assert not sys.scale_of_row().flags.writeable


@pytest.mark.parametrize("d,N,dim,shift", [(3, 3, 1, None), (2, 4, 1, (1, 0, 1, 1)),
                                           (2, 3, 2, (3, 1, 2))])
def test_expectation_equals_per_cube_loop(d, N, dim, shift, rng):
    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    for m in (1, 2):
        f = StepFunction(rng.standard_normal((sys.n_cells, m, m))
                         + 1j * rng.standard_normal((sys.n_cells, m, m)))
        for k in range(N + 1):
            ref = np.empty_like(f.values)
            for cube in sys.cubes_by_scale[k]:
                cells = _reference_cells(sys, cube)
                ref[cells] = f.values[cells].mean(axis=0)
            assert np.array_equal(expectation(sys, f, k).values, ref)


# Cube labels outside the window are named, never read as another cube.


def test_children_of_an_index_past_the_window():
    sys = build_system(DyadicParams(2, 3))
    with pytest.raises(KeyError, match=re.escape(str(CubeId(0, (5,))))):
        sys.children(CubeId(0, (5,)))


def test_children_of_an_index_past_a_finer_scale():
    sys = build_system(DyadicParams(2, 3))
    with pytest.raises(KeyError, match=re.escape(str(CubeId(1, (7,))))):
        sys.children(CubeId(1, (7,)))


def test_haar_values_of_an_index_past_the_window():
    sys = build_system(DyadicParams(2, 3))
    with pytest.raises(KeyError, match=re.escape(str(CubeId(1, (7,))))):
        sys.haar_values(HaarIndex(CubeId(1, (7,)), 1))


def test_children_of_a_negative_scale():
    sys = build_system(DyadicParams(2, 3))
    cube = CubeId(-1, (0,))
    for read in (sys.children, sys.measure, lambda c: sys.haar_values(HaarIndex(c, 1))):
        with pytest.raises(KeyError, match=re.escape(str(cube))):
            read(cube)


def test_one_axis_label_on_a_two_dimensional_system():
    sys = build_system(DyadicParams(2, 3, dim=2))
    cube = CubeId(0, (0,))
    for read in (sys.cells_of, sys.children, lambda c: sys.haar_values(HaarIndex(c, 1))):
        with pytest.raises(KeyError, match=re.escape(str(cube))):
            read(cube)


@pytest.mark.parametrize("cube", [CubeId(0, (0.5,)), CubeId(1, (1.0,)), CubeId(1.0, (1,)),
                                  CubeId(1, (True,)), CubeId(0, ("0",))])
def test_a_label_that_is_not_integer(cube):
    sys = build_system(DyadicParams(2, 3))
    for read in (sys.cells_of, sys.children, sys.measure,
                 lambda c: sys.position(HaarIndex(c, 1))):
        with pytest.raises(KeyError, match=re.escape(str(cube))):
            read(cube)


def test_numpy_integer_labels_are_accepted():
    sys = build_system(DyadicParams(3, 3, dim=1))
    cube = CubeId(np.int64(2), (np.int32(7),))
    assert np.array_equal(sys.cells_of(cube), sys.cells_of(CubeId(2, (7,))))
    assert sys.position(HaarIndex(cube, np.int64(2))) == sys.position(HaarIndex(CubeId(2, (7,)), 2))


@pytest.mark.parametrize("d,dim", [(3, 1), (2, 2)])
def test_position_rejects_a_colour_or_scale_outside_the_basis(d, dim):
    sys = build_system(DyadicParams(d, 2, dim))
    N, top = sys.params.depth, CubeId(0, (0,) * dim)
    for h in (HaarIndex(top, 0), HaarIndex(top, sys.n_colors + 1), HaarIndex(top, 1.5),
              HaarIndex(top, -1), HaarIndex(CubeId(N, (0,) * dim), 1)):
        with pytest.raises(KeyError, match=re.escape(str(h))):
            sys.position(h)


# `position` replaces the {HaarIndex: position} dict the system used to build
# next to the tree: it agrees with that dict on every label and rejects every
# key the dict lacked.


def _reference_positions(sys):
    """Every wavelet label by scale, index (in `itertools.product` order) and colour."""
    labels = [HaarIndex(CubeId(k, index), color) for k in range(sys.params.depth)
              for index in itertools.product(range(_reference_axis_count(sys, k)),
                                             repeat=sys.params.dim)
              for color in range(1, sys.n_colors + 1)]
    return {h: r for r, h in enumerate(labels, start=1)}


@pytest.mark.parametrize("d,N,dim", [(2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_position_equals_the_label_dict(d, N, dim):
    sys = build_system(DyadicParams(d, N, dim))
    ref = _reference_positions(sys)
    assert sys.haar_indices == tuple(ref)
    assert [sys.position(h) for h in ref] == list(ref.values()) == list(range(1, sys.dim_basis))


@pytest.mark.parametrize("dim", [1, 2])
def test_symbol_rejects_every_key_the_label_dict_rejects(dim):
    sys = build_system(DyadicParams(2 if dim == 2 else 3, 2, dim))
    ref = _reference_positions(sys)
    zero, N = (0,) * dim, sys.params.depth
    top = CubeId(0, zero)
    keys = [HaarIndex(top, 0), HaarIndex(top, sys.n_colors + 1), HaarIndex(top, 1.5),
            HaarIndex(CubeId(N, zero), 1), HaarIndex(CubeId(-1, zero), 1),
            HaarIndex(CubeId(0, (5,) * dim), 1), HaarIndex(CubeId(0, (0.5,) * dim), 1),
            HaarIndex(CubeId(0, zero + (0,)), 1), HaarIndex((0, zero), 1), top, (top, 1), "h"]
    for key in keys:
        assert key not in ref
        with pytest.raises(KeyError):
            Symbol(sys, {key: 1.0})


@pytest.mark.parametrize("make,field", [
    (lambda: GridShift((1.7, 0)), "omega[0]"),
    (lambda: GridShift((0, True)), "omega[1]"),
    (lambda: GridShift(("1",)), "omega[0]"),
    (lambda: DyadicParams(2, 2.5), "depth"),
    (lambda: DyadicParams(2, True), "depth"),
    (lambda: DyadicParams(2.0, 3), "d"),
    (lambda: DyadicParams(2, 3, dim=1.0), "dim"),
    (lambda: DyadicParams(np.float64(3), 2), "d"),
])
def test_parameters_that_are_not_integers(make, field):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer")):
        make()


def test_numpy_integer_parameters_are_accepted():
    params = DyadicParams(np.int64(3), np.int32(2), dim=np.uint8(1))
    assert params == DyadicParams(3, 2) and all(type(x) is int for x in vars(params).values())
    assert GridShift(np.array([1, 0, 1])).omega == (1, 0, 1)


def test_build_allocates_little_beyond_the_cell_tables():
    import tracemalloc

    tracemalloc.start()
    try:
        sys = build_system(DyadicParams(2, 14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = sum(cells.nbytes for cells in sys.cells_by_scale)
    assert all(cells.dtype == np.int32 for cells in sys.cells_by_scale)
    assert peak <= 2 * tables


def test_no_label_is_built_on_the_array_path(monkeypatch, rng):
    from parahaar import dyadic, kernels, norms
    from parahaar.paraproducts import (apply_paraproduct, paraproduct, random_symbol,
                                       triangle_op, triangle_tilde)

    built = []
    for cls in (dyadic.CubeId, dyadic.HaarIndex):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    CubeId(0, (0,))  # the wrappers are in place
    assert built == ["CubeId"]
    built.clear()
    for params in (DyadicParams(2, 6), DyadicParams(3, 3), DyadicParams(2, 3, dim=2)):
        sys = build_system(params)
        N = params.depth
        for m, scales in ((1, None), (2, {0, N - 1})):
            b = random_symbol(sys, rng, blockdim=m, scales=scales)
            f = StepFunction(rng.standard_normal((sys.n_cells, m, m)))
            paraproduct(sys, b)
            triangle_op(sys, b)
            triangle_tilde(sys, b)
            apply_paraproduct(sys, b, f)
            norms.besov_haar(sys, b, 1.0)
        kernels.random_admissible_family(sys, rng)
    assert built == []


def _complex_tables(sys):
    """basis_matrix and cube_average_matrix by the complex128 build they replace."""
    B = np.zeros((sys.n_cells, sys.dim_basis), dtype=complex)
    B[:, 0] = 1.0
    for k, (_, cols, _) in enumerate(sys.scale_layouts):
        kids = sys.cells_by_scale[k + 1][sys.descendants(k, 1)]  # (cube, child, cell)
        B[kids[..., None], cols[:, None, None, :]] = sys.child_values(k)[:, None, :]
    A = np.zeros((sys.dim_basis - 1, sys.dim_basis), dtype=complex)
    for cells, cols, rows in sys.scale_layouts:
        support = rows[:, : rows.shape[1] - sys.n_colors]  # coarse + strict ancestors
        means = B[cells[:, :, None], support[:, None, :]].mean(axis=1)
        A[cols[:, :, None] - 1, support[:, None, :]] = means[:, None, :]
    return B, A


@pytest.mark.parametrize("d,N,dim,shift,dtype", [
    (2, 5, 1, None, float), (2, 3, 2, None, float), (2, 4, 1, (1, 0, 1, 1), float),
    (2, 3, 2, (3, 1, 2), float), (3, 3, 1, None, complex), (4, 3, 1, None, complex),
])
def test_tables_are_real_exactly_where_the_phases_are(d, N, dim, shift, dtype, rng):
    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    # the phase rule written out: colour c on child q is exp(2 pi i c (q + 1) / d)
    # in one dimension and (-1)^{|q & c|} in several, times |I|^{-1/2}
    for k in range(N):
        q, c = np.arange(sys.d_eff)[:, None], np.arange(1, sys.n_colors + 1)
        phase = (np.exp(2j * np.pi * c * (q + 1) / d) if dim == 1
                 else (-1.0) ** np.vectorize(lambda x: bin(x).count("1"))(q & c))
        assert np.allclose(sys.child_values(k), sys.scale_measure(k) ** -0.5 * phase,
                           rtol=0, atol=model_bound(1, sys.scale_measure(k) ** -0.5))
    B, A = _complex_tables(sys)
    assert (dtype is complex) == bool(B.imag.any())  # at d = 4 the phases include +-i
    assert sys.basis_matrix.dtype == sys.cube_average_matrix.dtype == dtype
    assert sys.cube_averages[2].dtype == dtype
    assert np.array_equal(sys.basis_matrix, B)
    assert np.array_equal(sys.cube_average_matrix, A)
    # the transforms give the values of the complex tables within the
    # tolerance model: n terms per row, at the scale sum |terms| of each row
    analysis = B.conj().T * sys.cell_measure

    def close(got, table, x):
        want = np.einsum("rc,cij->rij", table, x)
        assert got.dtype == complex and got.shape == want.shape
        scale = np.einsum("rc,cij->rij", np.abs(table), np.abs(x)).max()
        assert np.abs(got - want).max() <= model_bound(table.shape[1], scale)

    for m in (1, 2):
        shape = (sys.n_cells, m, m)
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c = sys.coeffs(StepFunction(f))
        close(c, analysis, f)
        close(sys.synthesize(c).values, B, c)
        x = rng.standard_normal((sys.dim_basis, m, m))  # real coefficients
        close(sys.synthesize(x).values, B, x)


@pytest.mark.parametrize("d,dim", [(2, 1), (3, 1), (2, 2)])
def test_basis_tables_are_read_only(d, dim):
    sys = build_system(DyadicParams(d, 3, dim))
    for table in (sys.basis_matrix, sys.cube_average_matrix):
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
        assert sys.basis_matrix[0, 0] == 1.0
    assert sys.cube_averages is sys.cube_averages  # built once
    for column in sys.cube_averages:
        with pytest.raises(ValueError):
            column[0] = 2
    # the dense oracle is built on each read and kept by no one
    assert sys.cube_average_matrix is not sys.cube_average_matrix

import dataclasses

import numpy as np
import pytest

from parahaar.dyadic import (CubeId, DyadicParams, HaarIndex, StepFunction,
                             build_system, expectation, haar_function)
from parahaar.norms import block_lp
from parahaar.paraproducts import (Symbol, adjoint_paraproduct, apply_op, band,
                                   coarse_op, commutator_pieces, decompose,
                                   mult_op, paraproduct, r_op, random_symbol,
                                   rank_piece, scale_selector, splitting,
                                   triangle_op, triangle_tilde)
from parahaar.spectral import schatten_norm, triangular_project


def unit_symbol(sys, cube, color, value=1.0):
    return Symbol(sys, {HaarIndex(cube, color): np.array([[value]])})


def test_rank_one_paraproduct():
    sys = build_system(DyadicParams(2, 1))
    b = unit_symbol(sys, CubeId(0, (0,)), 1)
    P = paraproduct(sys, b)
    for p in (0.5, 1, 2, np.inf):
        assert schatten_norm(P, p) == pytest.approx(1.0, abs=1e-13)
    # action: pi_b(1) = h^1
    out = apply_op(P, sys, StepFunction(np.ones(2)))
    assert np.allclose(out.values[:, 0, 0], [-1.0, 1.0])


def test_zero_symbol():
    sys = build_system(DyadicParams(2, 2))
    b = Symbol(sys, {})
    assert np.abs(paraproduct(sys, b)).max() == 0.0


def test_entrywise_quadrature_oracle(rng):
    # matrix entries against brute-force cell integration of h b <1/|I|, h>
    sys = build_system(DyadicParams(3, 2))
    b = random_symbol(sys, rng)
    P = paraproduct(sys, b)
    b_fun = b.function().scalar()
    mu = sys.cell_measure
    for _ in range(40):
        r = int(rng.integers(0, len(sys.haar_indices)))
        c = int(rng.integers(0, len(sys.haar_indices)))
        hJ = sys.haar_values(sys.haar_indices[r])
        hI = sys.haar_values(sys.haar_indices[c])
        cube = sys.haar_indices[r].cube
        cells = sys.cells_of(cube)
        avg = hI[cells].mean()
        coeff = (np.conj(hJ) * b_fun).sum() * mu  # <h_J, b>
        assert P[1 + r, 1 + c] == pytest.approx(coeff * avg, abs=1e-12)


def test_adjoint_is_conjugate_transpose(rng):
    for d, m in ((2, 1), (3, 2)):
        sys = build_system(DyadicParams(d, 2))
        b = random_symbol(sys, rng, blockdim=m)
        assert np.abs(adjoint_paraproduct(sys, b) - paraproduct(sys, b).conj().T).max() < 1e-12


def test_adjoint_rank_one():
    sys = build_system(DyadicParams(2, 1))
    b = unit_symbol(sys, CubeId(0, (0,)), 1)
    A = adjoint_paraproduct(sys, b)
    # adjoint sends h^1 to the constant 1
    out = apply_op(A, sys, haar_function(sys, HaarIndex(CubeId(0, (0,)), 1)))
    assert np.allclose(out.values[:, 0, 0], 1.0)


def test_lambda_tilde_zero_d2(rng):
    sys = build_system(DyadicParams(2, 3))
    lt = triangle_tilde(sys, random_symbol(sys, rng))
    assert np.abs(lt).max() == 0.0


def test_lambda_tilde_color_shift_d3():
    sys = build_system(DyadicParams(3, 1))
    b = unit_symbol(sys, CubeId(0, (0,)), 1)
    lt = triangle_tilde(sys, b)
    row = sys.position(HaarIndex(CubeId(0, (0,)), 2))
    col = sys.position(HaarIndex(CubeId(0, (0,)), 1))
    assert lt[row, col] == pytest.approx(1.0)
    assert np.abs(lt).sum() == pytest.approx(1.0)


def test_lambda_tilde_block_diagonal(rng):
    sys = build_system(DyadicParams(3, 2))
    b = random_symbol(sys, rng)
    lt = triangle_tilde(sys, b)
    for r, h in enumerate(sys.haar_indices):
        for c, g in enumerate(sys.haar_indices):
            if h.cube != g.cube:
                assert lt[1 + r, 1 + c] == 0.0


def test_constant_symbol_operators(rng):
    sys = build_system(DyadicParams(2, 2))
    c = 1.5 - 0.5j
    b = Symbol(sys, {}, coarse_mean=np.array([[c]]))
    lam = triangle_op(sys, b)
    assert np.abs(paraproduct(sys, b)).max() == 0.0
    assert np.abs(lam).max() == 0.0
    f = StepFunction(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    rf = apply_op(r_op(sys, b), sys, f)
    target = c * (f.values - expectation(sys, f, 0).values)
    assert np.abs(rf.values - target).max() < 1e-13
    mf = apply_op(mult_op(sys, b), sys, f)
    assert np.abs(mf.values - c * f.values).max() < 1e-13


def test_multiplication_two_ways(rng):
    for m in (1, 2):
        sys = build_system(DyadicParams(3, 2))
        for _ in range(50):
            b = random_symbol(sys, rng, blockdim=m)
            bun = decompose(sys, b)
            resid = np.abs(bun.mult - bun.pi - bun.lam - bun.r - bun.coarse).max()
            assert resid < 1e-12 * max(1.0, np.abs(bun.mult).max())


def test_decompose_builds_no_oracle(monkeypatch, rng):
    from parahaar import paraproducts

    def refuse(*args, **kwargs):
        raise AssertionError("decompose built an oracle")

    monkeypatch.setattr(paraproducts, "adjoint_paraproduct", refuse)
    monkeypatch.setattr(paraproducts, "triangle_tilde", refuse)
    sys = build_system(DyadicParams(3, 2))
    b = random_symbol(sys, rng, blockdim=2)
    bun = decompose(sys, b)
    assert [f.name for f in dataclasses.fields(bun)] == ["pi", "lam", "r", "mult", "coarse"]
    assert np.abs(bun.mult - bun.pi - bun.lam - bun.r - bun.coarse).max() < 1e-12


def test_haar_times_haar_d2():
    sys = build_system(DyadicParams(2, 1))
    b = unit_symbol(sys, CubeId(0, (0,)), 1)
    f = haar_function(sys, HaarIndex(CubeId(0, (0,)), 1))
    bun = decompose(sys, b)
    mf = apply_op(bun.mult, sys, f)
    lf = apply_op(bun.lam, sys, f)
    assert np.allclose(mf.values[:, 0, 0], 1.0)
    assert np.allclose(lf.values[:, 0, 0], 1.0)
    assert np.abs(apply_op(bun.pi, sys, f).values).max() < 1e-14
    assert np.abs(apply_op(bun.r, sys, f).values).max() < 1e-14


def test_coarse_term():
    sys = build_system(DyadicParams(2, 2))
    b = Symbol(sys, {}, coarse_mean=np.array([[1.0]]))
    K = coarse_op(sys, b)
    f = StepFunction(np.array([1.0, 2.0, 3.0, 4.0]))
    kf = apply_op(K, sys, f)
    assert np.allclose(kf.values[:, 0, 0], 2.5)
    # mean-zero symbol: no boundary term
    b0 = unit_symbol(sys, CubeId(0, (0,)), 1)
    assert np.abs(coarse_op(sys, b0)).max() == 0.0


def test_band_vanishing_and_resolution(rng):
    sys = build_system(DyadicParams(2, 3))
    b = random_symbol(sys, rng)
    for n in range(3):
        for m in range(0, n + 1):
            assert np.abs(band(sys, b, n, m)).max() < 1e-14
    P = paraproduct(sys, b)
    acc = sum(band(sys, b, n, m) for n in range(3) for m in range(n + 1, 3))
    assert np.abs((P - acc)[:, 1:]).max() < 1e-12


def test_band_bound_small_p(rng):
    sys = build_system(DyadicParams(2, 4))
    p = 0.5
    for _ in range(20):
        b = random_symbol(sys, rng)
        n, m = 1, 3
        lhs = schatten_norm(band(sys, b, n, m), p) ** p
        rhs = (2 - 1) * 2.0 ** ((n - m) * p / 2) * sum(
            (block_lp(blk, p) / sys.measure(h.cube) ** 0.5) ** p
            for h, blk in b.coeffs.items() if h.cube.scale == m)
        assert lhs <= rhs + 1e-10


def test_splitting_shapes(rng):
    sys = build_system(DyadicParams(2, 4))
    b = random_symbol(sys, rng)
    full, diag, off = splitting(sys, b, 3, 0)
    assert np.allclose(full, diag + off)
    with pytest.raises(ValueError):
        splitting(sys, b, 1, 0)
    with pytest.raises(ValueError):
        splitting(sys, b, 3, 3)


def _splitting_band_loop(sys, b, n_step, k):
    """The per-band reference: the sum of band(out, in) over the scales of
    the progressions out = n_step mm + k + 1 and in = n_step nn + k, nn <= mm."""
    N = sys.params.depth
    D = sys.dim_basis * b.blockdim
    diag = np.zeros((D, D), dtype=complex)
    off = np.zeros((D, D), dtype=complex)
    for mm in range(-N, N + 1):
        out_scale = n_step * mm + k + 1
        for nn in range(-N, mm + 1):
            in_scale = n_step * nn + k
            if 0 <= out_scale < N and 0 <= in_scale < N:
                if nn == mm:
                    diag += band(sys, b, in_scale, out_scale)
                else:
                    off += band(sys, b, in_scale, out_scale)
    return diag + off, diag, off


def _same_bits(x, y):
    return all(np.array_equal(f(x), f(y)) for f in (
        np.real, np.imag, lambda a: np.signbit(a.real), lambda a: np.signbit(a.imag)))


@pytest.mark.parametrize("d,N,dim", [(2, 6, 1), (3, 4, 1), (5, 3, 1), (2, 4, 2)])
@pytest.mark.parametrize("m", [1, 2])
def test_splitting_equals_band_loop(rng, d, N, dim, m):
    sys = build_system(DyadicParams(d, N, dim=dim))
    b = random_symbol(sys, rng, blockdim=m)
    for n_step in (2, 3, 4):
        for k in range(n_step):
            got = splitting(sys, b, n_step, k)
            want = _splitting_band_loop(sys, b, n_step, k)
            assert all(_same_bits(x, y) for x, y in zip(got, want))


def test_commutator_pieces_identities(rng):
    sys = build_system(DyadicParams(2, 3))
    a = random_symbol(sys, rng)
    b = random_symbol(sys, rng)
    psi, v = commutator_pieces(sys, a, b)
    pa, pb = paraproduct(sys, a), paraproduct(sys, b)
    rb = r_op(sys, b)
    lam = triangle_op(sys, b)
    haar = np.arange(sys.dim_basis) > 0
    lhs = pa @ rb - rb @ pa + psi + pa @ pb
    assert np.abs(lhs[:, haar]).max() < 1e-11
    lhs2 = pa @ rb - rb @ pa + pa @ (pb + lam) - v
    assert np.abs(lhs2[:, haar]).max() < 1e-11
    tri = triangular_project(pa @ lam, sys.scale_of_row())
    assert np.abs(psi - tri).max() < 1e-11


def test_commutator_pieces_trivial(rng):
    sys = build_system(DyadicParams(2, 2))
    const = Symbol(sys, {}, coarse_mean=np.array([[2.0]]))
    b = random_symbol(sys, rng)
    psi, v = commutator_pieces(sys, const, b)
    assert np.abs(psi).max() < 1e-14 and np.abs(v).max() < 1e-14
    psi2, v2 = commutator_pieces(sys, b, const)
    assert np.abs(psi2).max() < 1e-14 and np.abs(v2).max() < 1e-14


def test_commutator_rejects_block_outer(rng):
    sys = build_system(DyadicParams(2, 2))
    a = random_symbol(sys, rng, blockdim=2)
    with pytest.raises(ValueError):
        commutator_pieces(sys, a, a)


def test_psi_containment_pattern(rng):
    sys = build_system(DyadicParams(2, 3))
    psi, _ = commutator_pieces(sys, random_symbol(sys, rng), random_symbol(sys, rng))
    for r, h in enumerate(sys.haar_indices):
        for c, g in enumerate(sys.haar_indices):
            contained = h.cube.scale > g.cube.scale and set(
                sys.cells_of(h.cube)) <= set(sys.cells_of(g.cube))
            if not contained:
                assert abs(psi[1 + r, 1 + c]) < 1e-12


def test_rank_pieces(rng):
    sys = build_system(DyadicParams(2, 2))
    b = random_symbol(sys, rng)
    pieces = {h: rank_piece(sys, b, h.cube, h.color) for h in sys.haar_indices}
    hs = list(pieces)
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            assert np.abs(pieces[hs[i]].conj().T @ pieces[hs[j]]).max() < 1e-14
    single = unit_symbol(sys, CubeId(1, (1,)), 1, value=2.0 - 1j)
    assert np.allclose(paraproduct(sys, single),
                       rank_piece(sys, single, CubeId(1, (1,)), 1))
    for p in (0.5, 1, 2):
        norm = schatten_norm(paraproduct(sys, b), p)
        for h, blk in b.coeffs.items():
            assert norm >= block_lp(blk, p) / sys.measure(h.cube) ** 0.5 - 1e-10


def test_linearity_in_symbol(rng):
    sys = build_system(DyadicParams(3, 2))
    b1 = random_symbol(sys, rng)
    b2 = random_symbol(sys, rng)
    combo = Symbol(sys, {h: b1.coeffs[h] + 2 * b2.coeffs[h] for h in b1.coeffs},
                   b1.coarse_mean + 2 * b2.coarse_mean)
    for op in (paraproduct, adjoint_paraproduct, mult_op, r_op):
        assert np.abs(op(sys, combo) - op(sys, b1) - 2 * op(sys, b2)).max() < 1e-11


def test_matrix_free_application(rng):
    from parahaar.paraproducts import apply_paraproduct

    for d, m in ((3, 1), (2, 2)):
        sys = build_system(DyadicParams(d, 2))
        b = random_symbol(sys, rng, blockdim=m)
        f = StepFunction(rng.standard_normal((sys.n_cells, m, m))
                         + 1j * rng.standard_normal((sys.n_cells, m, m)))
        direct = apply_paraproduct(sys, b, f)
        via_matrix = apply_op(paraproduct(sys, b), sys, f)
        assert np.abs(direct.values - via_matrix.values).max() < 1e-12


def test_identities_on_shifted_system(rng):
    from parahaar.dyadic import GridShift

    sys = build_system(DyadicParams(2, 3), GridShift((1, 0, 1)))
    b = random_symbol(sys, rng)
    a = random_symbol(sys, rng)
    bun = decompose(sys, b)
    assert np.abs(bun.mult - bun.pi - bun.lam - bun.r - bun.coarse).max() < 1e-12
    assert np.abs(adjoint_paraproduct(sys, b) - bun.pi.conj().T).max() == 0.0
    psi, v = commutator_pieces(sys, a, b)
    pa, pb, rb = paraproduct(sys, a), paraproduct(sys, b), r_op(sys, b)
    lam = triangle_op(sys, b)
    haar = np.arange(sys.dim_basis) > 0
    assert np.abs((pa @ rb - rb @ pa + psi + pa @ pb)[:, haar]).max() < 1e-11
    assert np.abs((pa @ rb - rb @ pa + pa @ (pb + lam) - v)[:, haar]).max() < 1e-11
    tri = triangular_project(pa @ lam, sys.scale_of_row())
    assert np.abs(psi - tri).max() < 1e-11


def test_commutator_identities_dim2(rng):
    sys = build_system(DyadicParams(2, 2, dim=2))
    a = random_symbol(sys, rng)
    b = random_symbol(sys, rng)
    psi, v = commutator_pieces(sys, a, b)
    pa, pb, rb = paraproduct(sys, a), paraproduct(sys, b), r_op(sys, b)
    lam = triangle_op(sys, b)
    haar = np.arange(sys.dim_basis) > 0
    assert np.abs((pa @ rb - rb @ pa + psi + pa @ pb)[:, haar]).max() < 1e-11
    assert np.abs((pa @ rb - rb @ pa + pa @ (pb + lam) - v)[:, haar]).max() < 1e-11
    tri = triangular_project(pa @ lam, sys.scale_of_row())
    assert np.abs(psi - tri).max() < 1e-11


def _scale_sum_oracle(sys, b, keep):
    """sum_k M_{b_k} S_{k-1} from dense multiplication operators, where b_k
    keeps the Haar terms of b whose cube scale passes keep(scale, k)."""
    out = 0.0
    for k in range(1, sys.params.depth + 1):
        part = Symbol(sys, {h: blk for h, blk in b.coeffs.items() if keep(h.cube.scale, k)},
                      b.coarse_mean if keep(-1, k) else None, blockdim=b.blockdim)
        out = out + mult_op(sys, part) * scale_selector(sys, k - 1, b.blockdim)[None, :]
    return out


@pytest.mark.parametrize("d,N,m,dim,shift", [
    (2, 3, 1, 1, None), (3, 2, 2, 1, None), (5, 2, 1, 1, None), (2, 2, 1, 2, None),
    (2, 3, 1, 1, (1, 0, 1)),
])
def test_lambda_and_r_against_multiplication_oracle(rng, d, N, m, dim, shift):
    from parahaar.dyadic import GridShift

    sys = build_system(DyadicParams(d, N, dim=dim), GridShift(shift) if shift else None)
    b = random_symbol(sys, rng, blockdim=m)
    lam = triangle_op(sys, b)
    # Lambda_b = sum_k M_{d_k b} S_{k-1}; R_b = sum_k M_{E_{k-1} b} S_{k-1}
    lam_oracle = _scale_sum_oracle(sys, b, lambda s, k: s == k - 1)
    r_oracle = _scale_sum_oracle(sys, b, lambda s, k: s <= k - 2)
    assert np.abs(lam - lam_oracle).max() < 1e-12
    assert np.abs(r_op(sys, b) - r_oracle).max() < 1e-12


def test_r_block_diagonal(rng):
    for d, m in ((3, 1), (2, 2)):
        sys = build_system(DyadicParams(d, 3))
        b = random_symbol(sys, rng, blockdim=m)
        R = r_op(sys, b).reshape(sys.dim_basis, m, sys.dim_basis, m)
        off = ~np.eye(sys.dim_basis, dtype=bool)
        assert np.abs(R.transpose(0, 2, 1, 3)[off]).max() == 0.0
        f = b.function().values
        for h in sys.haar_indices:
            row = sys.position(h)
            mean = f[sys.cells_of(h.cube)].mean(axis=0)
            assert np.abs(R[row, :, row, :] - mean).max() < 1e-13
        assert np.abs(R[0, :, 0, :]).max() == 0.0


@pytest.mark.parametrize("d,N,dim", [(3, 3, 1), (2, 3, 2)])
def test_paraproduct_exact_zero_lines(rng, d, N, dim):
    # E_{k-1} never sees a finest-scale wavelet, and there is no coarse output row
    sys = build_system(DyadicParams(d, N, dim=dim))
    for m in (1, 2):
        b = random_symbol(sys, rng, blockdim=m)
        P = paraproduct(sys, b).reshape(sys.dim_basis, m, sys.dim_basis, m)
        finest = sys.scale_of_row() == N - 1
        assert np.all(P[:, :, finest, :] == 0)
        assert np.all(P[0] == 0)
        assert np.all(P[:, :, ~finest, :].any(axis=(0, 1, 3)))  # nothing else is a zero column


def _random_symbol_loop(sys, rng, m, scales=None, with_mean=True):
    """The per-index reference: a real and an imaginary draw per Haar index."""
    table = {}
    for h in sys.haar_indices:
        if scales is None or h.cube.scale in scales:
            table[h] = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    mean = None
    if with_mean:
        mean = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return table, mean


@pytest.mark.parametrize("d,N,dim", [(2, 4, 1), (3, 3, 1), (2, 3, 2)])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("scales,with_mean", [(None, True), ({1, 2}, True), (None, False),
                                               ({0, 3}, True)])
def test_random_symbol_matches_per_index_draws(d, N, dim, m, scales, with_mean):
    sys = build_system(DyadicParams(d, N, dim))
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    b = random_symbol(sys, rng, blockdim=m, scales=scales, with_mean=with_mean)
    table, mean = _random_symbol_loop(sys, ref, m, scales, with_mean)
    assert list(b.coeffs) == list(table)
    for h, block in table.items():
        assert np.array_equal(b.coeffs[h], block)
    assert np.array_equal(b.coarse_mean, mean if with_mean else np.zeros((m, m)))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("with_block,mean,blockdim", [
    (False, [[3.0]], 2),      # a 1 x 1 mean on a 2 x 2 symbol
    (True, np.eye(2), None),  # a 2 x 2 mean next to 1 x 1 blocks
])
def test_symbol_rejects_coarse_mean_of_wrong_shape(with_block, mean, blockdim):
    sys = build_system(DyadicParams(2, 2))
    table = {sys.haar_indices[0]: [[1.0]]} if with_block else {}
    with pytest.raises(ValueError, match="coarse mean included"):
        Symbol(sys, table, coarse_mean=mean, blockdim=blockdim)


@pytest.mark.parametrize("m", [1, 2])
def test_symbol_blocks_are_the_basis_coefficients(rng, m):
    sys = build_system(DyadicParams(3, 2))
    f = StepFunction(rng.standard_normal((sys.n_cells, m, m)))
    b = Symbol.from_function(sys, f)
    assert np.array_equal(b.blocks, sys.coeffs(f))
    assert b.blockdim == m and np.array_equal(b.coarse_mean, b.blocks[0])
    # the table constructor and the array constructor give the same symbol
    assert np.array_equal(Symbol(sys, b.coeffs, b.coarse_mean).blocks, b.blocks)
    assert list(b.coeffs) == [h for h, blk in zip(sys.haar_indices, b.blocks[1:]) if np.any(blk)]
    with pytest.raises(ValueError):
        b.blocks[1] = 0.0
    with pytest.raises(TypeError):
        b.coeffs[sys.haar_indices[0]] = np.zeros((m, m))
    with pytest.raises(ValueError, match="blocks must have shape"):
        Symbol.from_blocks(sys, b.blocks[1:])


def test_from_blocks_copies_its_input():
    sys = build_system(DyadicParams(2, 2))
    blocks = np.zeros((sys.dim_basis, 1, 1), dtype=complex)
    b = Symbol.from_blocks(sys, blocks)
    blocks[1] = 5.0
    assert blocks.flags.writeable and not b.blocks.any()


@pytest.mark.parametrize("d,N,dim,m", [(2, 5, 1, 1), (2, 4, 1, 2), (2, 3, 2, 1), (2, 2, 2, 2)])
def test_operators_on_real_tables_equal_complex_tables(rng, d, N, dim, m):
    # a second system holds the same table values as complex128, which every
    # reader took before the tables were kept real
    params = DyadicParams(d, N, dim)
    sys, cplx = build_system(params), build_system(params)
    assert sys.basis_matrix.dtype == sys.cube_average_matrix.dtype == float
    cplx._basis = sys.basis_matrix.astype(complex)
    cplx._avg = sys.cube_average_matrix.astype(complex)
    b = random_symbol(sys, rng, blockdim=m)
    b_c = Symbol.from_blocks(cplx, b.blocks)
    for op in (paraproduct, adjoint_paraproduct, triangle_op, mult_op, r_op):
        assert np.array_equal(op(sys, b), op(cplx, b_c)), op.__name__
    h = sys.haar_indices[-1]
    assert np.array_equal(rank_piece(sys, b, h.cube, h.color),
                          rank_piece(cplx, b_c, h.cube, h.color))
    assert np.array_equal(b.star().blocks, b_c.star().blocks)

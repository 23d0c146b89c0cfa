import dataclasses

import numpy as np
import pytest

from parahaar.dyadic import (CubeId, DyadicParams, FiniteDyadicSystem, GridShift, HaarIndex,
                             StepFunction, build_system, expectation,
                             haar_function, martingale_difference)
from parahaar.checks import _paraproduct_norms, model_bound
from parahaar.paraproducts import (Symbol, adjoint_paraproduct, apply_op, band,
                                   coarse_op, commutator_pieces, decompose,
                                   mult_op, paraproduct, paraproduct_core, r_op, random_symbol,
                                   rank_piece, splitting,
                                   triangle_op, triangle_tilde)
from parahaar.spectral import schatten_norm, schatten_norms, singular_values, triangular_project


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
            (schatten_norm(blk, p, len(blk)) / sys.measure(h.cube) ** 0.5) ** p
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


def _masked_band(sys, b, n, m_scale):
    """The assembly `band` replaced: the whole paraproduct, masked."""
    scales = np.repeat(sys.scale_of_row(), b.blockdim)
    kept = (scales[:, None] == m_scale) & (scales[None, :] == n)
    return np.where(kept, paraproduct(sys, b), 0.0)


def _masked_splitting(sys, b, n_step, k):
    """The assembly `splitting` replaced: the whole paraproduct, masked."""
    scales = np.repeat(sys.scale_of_row(), b.blockdim)
    out, inp = scales[:, None], scales[None, :]
    kept = (inp >= 0) & (out % n_step == (k + 1) % n_step) & (inp % n_step == k)
    pi = paraproduct(sys, b)
    diag = np.where(kept & (out == inp + 1), pi, 0.0)
    off = np.where(kept & (out > inp + 1), pi, 0.0)
    return diag + off, diag, off


@pytest.mark.parametrize("d,N,dim", [(2, 5, 1), (3, 3, 1), (5, 2, 1), (2, 3, 2)])
@pytest.mark.parametrize("m", [1, 2])
def test_bands_and_splittings_equal_the_masked_paraproduct(rng, d, N, dim, m):
    """Scattered from the entries they keep, band and splitting are the
    masked whole paraproduct byte for byte."""
    sys = build_system(DyadicParams(d, N, dim=dim))
    b = random_symbol(sys, rng, blockdim=m)
    for n in range(N):
        for m_scale in range(N):
            assert band(sys, b, n, m_scale).tobytes() == _masked_band(sys, b, n, m_scale).tobytes()
    for n_step in (2, 3):
        for k in range(n_step):
            got, want = splitting(sys, b, n_step, k), _masked_splitting(sys, b, n_step, k)
            assert [x.tobytes() for x in got] == [y.tobytes() for y in want]


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


def test_commutator_pieces_holds_a_few_operators(monkeypatch, rng):
    import tracemalloc

    def refuse(self):
        raise AssertionError("commutator_pieces read the dense basis")

    monkeypatch.setattr(FiniteDyadicSystem, "basis_matrix", property(refuse))
    sys = build_system(DyadicParams(2, 8))
    a, b = random_symbol(sys, rng), random_symbol(sys, rng)
    sys.cube_averages  # built before tracing, as every caller finds it
    tracemalloc.start()
    try:
        psi, v = commutator_pieces(sys, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two outputs, plus O(D N m^2) for the flat table's gathers
    assert psi.nbytes == v.nbytes == 16 * sys.dim_basis ** 2
    assert peak <= 1.25 * (psi.nbytes + v.nbytes)


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
            assert norm >= schatten_norm(blk, p, len(blk)) / sys.measure(h.cube) ** 0.5 - 1e-10


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


def test_matrix_free_application_rejects_a_cell_count_mismatch(rng):
    from parahaar.paraproducts import apply_paraproduct

    sys = build_system(DyadicParams(2, 2))
    b = random_symbol(sys, rng)
    with pytest.raises(ValueError, match="8 cells, the system 4"):
        apply_paraproduct(sys, b, StepFunction(np.arange(8.0)))


def test_identities_on_shifted_system(rng):
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
        out = out + mult_op(sys, part) * (np.repeat(sys.scale_of_row(), b.blockdim) == k - 1)
    return out


def _commutator_oracle(sys, a, b):
    """(Psi, V) composed from dense multiplication operators: with
    A_k = M_{d_k a} and B_j = M_{d_j b} S_{j-1},
    Psi = sum_{j<k} A_k B_j and V = sum_{k<=j} A_k E_{k-1} B_j."""
    m, N = b.blockdim, sys.params.depth
    scales = np.repeat(sys.scale_of_row(), m)
    lifted = Symbol.from_blocks(sys, np.eye(m) * a.blocks[:, :1, :1])  # a I_m

    def difference(sym, k):  # M_{d_k sym}
        return mult_op(sys, Symbol(sys, {h: blk for h, blk in sym.coeffs.items()
                                         if h.cube.scale == k - 1}, blockdim=m))

    A = {k: difference(lifted, k) for k in range(1, N + 1)}
    B = {j: difference(b, j) * (scales == j - 1) for j in range(1, N + 1)}
    psi = sum(A[k] @ B[j] for k in A for j in B if j < k)
    v = sum((A[k] * (scales < k - 1)) @ B[j] for k in A for j in B if k <= j)
    return psi, v


@pytest.mark.parametrize("d,N,dim,m,shift", [
    (2, 3, 1, 1, None), (2, 4, 1, 2, None), (3, 2, 1, 1, None), (3, 3, 1, 2, None),
    (4, 2, 1, 1, None), (4, 3, 1, 1, None), (5, 2, 1, 2, None), (2, 2, 2, 1, None),
    (2, 3, 2, 2, None), (2, 3, 1, 2, (1, 0, 1)), (2, 8, 1, 1, None),
])
def test_commutator_pieces_against_multiplication_oracle(rng, d, N, dim, m, shift):
    """Psi and V from the tree equal their composition from dense
    multiplication operators, and their coarse lines are exact zeros.
    Mutants this kills: Psi with conj(c) (d = 3, 4, 5), Psi without the
    sum_r b c factor, mu taken at the parent's scale, V without Q's own
    block, and |Q|^{-1} in place of |J|^{-1}."""
    sys = build_system(DyadicParams(d, N, dim=dim), GridShift(shift) if shift else None)
    a, b = random_symbol(sys, rng), random_symbol(sys, rng, blockdim=m)
    psi, v = commutator_pieces(sys, a, b)
    for got, want in zip((psi, v), _commutator_oracle(sys, a, b)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    D = sys.dim_basis
    psi, v = psi.reshape(D, m, D, m), v.reshape(D, m, D, m)
    assert not psi[0].any() and not psi[:, :, 0].any()
    assert not v[0].any() and not v[:, :, 0].any()


@pytest.mark.parametrize("d,N,m,dim,shift", [
    (2, 3, 1, 1, None), (3, 2, 2, 1, None), (5, 2, 1, 1, None), (2, 2, 1, 2, None),
    (2, 3, 1, 1, (1, 0, 1)), (4, 3, 1, 1, None), (5, 2, 2, 1, None),
])
def test_lambda_and_r_against_multiplication_oracle(rng, d, N, m, dim, shift):
    """Mutants this kills: the support entries of `triangle_op` without conj
    of the `cube_averages` values (d = 3, 4, 5), its own-slot table T_s
    without conj(V) (d = 3, 4, 5), and mu taken at the parent's scale."""
    sys = build_system(DyadicParams(d, N, dim=dim), GridShift(shift) if shift else None)
    b = random_symbol(sys, rng, blockdim=m)
    lam = triangle_op(sys, b)
    # Lambda_b = sum_k M_{d_k b} S_{k-1}; R_b = sum_k M_{E_{k-1} b} S_{k-1}
    lam_oracle = _scale_sum_oracle(sys, b, lambda s, k: s == k - 1)
    r_oracle = _scale_sum_oracle(sys, b, lambda s, k: s <= k - 2)
    assert np.abs(lam - lam_oracle).max() < 1e-12
    assert np.abs(r_op(sys, b) - r_oracle).max() < 1e-12


@pytest.mark.parametrize("d,N,dim,m,shift", [
    (2, 4, 1, 1, None), (3, 3, 1, 2, None), (5, 2, 1, 1, None), (2, 2, 2, 2, None),
    (2, 4, 1, 2, (1, 0, 1, 1)),
])
def test_martingale_difference_is_one_scale_of_coefficients(rng, d, N, dim, m, shift):
    """d_k b from conditional expectations equals the synthesis of b's
    coefficients of cube scale k-1, every other row zeroed in a copy."""
    sys = build_system(DyadicParams(d, N, dim=dim), GridShift(shift) if shift else None)
    b = random_symbol(sys, rng, blockdim=m)
    f = b.function()
    for k in range(1, N + 1):
        coeffs = b.blocks.copy()
        coeffs[sys.scale_of_row() != k - 1] = 0.0
        oracle = sys.synthesize(coeffs).values
        diff = martingale_difference(sys, f, k).values
        assert np.abs(diff - oracle).max() <= 1e-13 * np.abs(oracle).max()


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
    if scales is not None and max(scales) >= N:  # {0, 3} in a depth-3 window
        with pytest.raises(ValueError, match=rf"must be an integer in 0..{N - 1}, got 3"):
            random_symbol(sys, rng, blockdim=m, scales=scales, with_mean=with_mean)
        scales = {s for s in scales if s < N}
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
    rows, cols, values = sys.cube_averages
    assert sys.basis_matrix.dtype == sys.cube_average_matrix.dtype == values.dtype == float
    assert all(sys.child_values(k).dtype == float for k in range(N))
    cplx._basis = sys.basis_matrix.astype(complex)
    cplx._averages = (rows, cols, values.astype(complex))
    cplx._tables = tuple(sys.child_values(k).astype(complex) for k in range(N))
    assert cplx.cube_average_matrix.dtype == cplx.cube_averages[2].dtype == complex
    assert all(cplx.child_values(k).dtype == complex for k in range(N))
    b = random_symbol(sys, rng, blockdim=m)
    b_c = Symbol.from_blocks(cplx, b.blocks)
    # the same operators within the tolerance model: sums over the cells, at
    # the largest entry of each
    def close(got, want):
        assert got.dtype == want.dtype == complex and got.shape == want.shape
        assert np.abs(got - want).max() <= model_bound(sys.n_cells, np.abs(want).max())

    for op in (paraproduct, adjoint_paraproduct, triangle_op, mult_op, r_op):
        close(op(sys, b), op(cplx, b_c))
    h = sys.haar_indices[-1]
    close(rank_piece(sys, b, h.cube, h.color), rank_piece(cplx, b_c, h.cube, h.color))
    close(b.star().blocks, b_c.star().blocks)


def _dense_table_paraproduct(sys, b):
    """The assembly `paraproduct` replaced: one einsum of the dense
    cube-average table, made complex, against the blocks, the coarse row
    left zero."""
    D, m = sys.dim_basis, b.blockdim
    out = np.zeros((D, m, D, m), dtype=complex)
    out[1:] = np.einsum("rg,rij->rigj", sys.cube_average_matrix.astype(complex), b.blocks[1:])
    return out.reshape(D * m, D * m)


def _dense_table_rank_piece(sys, b, cube, color):
    """The assembly `rank_piece` replaced: the row of the dense table, made complex."""
    m, D = b.blockdim, sys.dim_basis
    row = sys.position(HaarIndex(cube, color))
    out = np.zeros((D * m, D * m), dtype=complex)
    pattern = sys.cube_average_matrix[row - 1].astype(complex, copy=False)
    out[row * m:(row + 1) * m, :] = np.einsum("ij,g->igj", b.blocks[row], pattern).reshape(m, D * m)
    return out


@pytest.mark.parametrize("d,N,dim,m,shift", [
    (2, 5, 1, 1, None), (2, 4, 1, 2, None), (3, 3, 1, 1, None), (3, 3, 1, 2, None),
    (5, 2, 1, 1, None), (5, 2, 1, 2, None), (2, 3, 2, 1, None), (2, 3, 2, 2, None),
    (2, 2, 3, 1, None), (2, 2, 3, 2, None), (2, 4, 1, 2, (1, 0, 1, 1)), (2, 3, 2, 1, (3, 1, 2)),
])
def test_flat_table_operators_equal_the_dense_table_einsum(rng, d, N, dim, m, shift):
    # the same zero pattern, and values within the tolerance model: the dense
    # table's entries are means over a cube's cells, at the largest entry
    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    b = random_symbol(sys, rng, blockdim=m)
    sparse = np.where(rng.random(b.blocks.shape) < 0.3, b.blocks, 0)

    def close(got, want):
        assert got.dtype == want.dtype == complex and got.shape == want.shape
        assert np.array_equal(got == 0, want == 0)
        assert np.abs(got - want).max() <= model_bound(sys.n_cells, np.abs(want).max())

    for sym in (b, Symbol.from_blocks(sys, b.blocks.real), Symbol.from_blocks(sys, sparse)):
        close(paraproduct(sys, sym), _dense_table_paraproduct(sys, sym))
        for h in (sys.haar_indices[0], sys.haar_indices[len(sys.haar_indices) // 2],
                  sys.haar_indices[-1]):
            close(rank_piece(sys, sym, h.cube, h.color),
                  _dense_table_rank_piece(sys, sym, h.cube, h.color))


@pytest.mark.parametrize("m", [1, 2])
def test_paraproduct_holds_its_output_and_the_flat_table(monkeypatch, rng, m):
    import tracemalloc

    def refuse(self):
        raise AssertionError("paraproduct read a dense table")

    monkeypatch.setattr(FiniteDyadicSystem, "basis_matrix", property(refuse))
    monkeypatch.setattr(FiniteDyadicSystem, "cube_average_matrix", property(refuse))
    sys = build_system(DyadicParams(2, 9))  # fresh: the call builds the flat table
    b = random_symbol(sys, rng, blockdim=m)
    D, N = sys.dim_basis, sys.params.depth
    h = sys.haar_indices[-1]
    tracemalloc.start()
    try:
        P = paraproduct(sys, b)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rank_piece(sys, b, h.cube, h.color)
        piece_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the complex output, plus O(D N m^2) for the flat table and its products;
    # a dense (D - 1) x D table would add 8 D^2 (2 MB here)
    assert P.nbytes == 16 * (D * m) ** 2
    assert peak <= P.nbytes + 64 * D * N * m * m
    assert piece_peak <= P.nbytes + 64 * D * N * m * m


@pytest.mark.parametrize("d,N,dim,m,shift", [
    (2, 4, 1, 1, None), (2, 3, 1, 2, None), (3, 3, 1, 1, None), (3, 2, 1, 2, None),
    (5, 2, 1, 1, None), (5, 2, 1, 2, None), (2, 2, 2, 1, None), (2, 2, 2, 2, None),
    (2, 3, 1, 2, (1, 0, 1)), (2, 3, 2, 1, (3, 1, 2)),
])
def test_mult_op_is_the_complex_multiplication_matrix(rng, d, N, dim, m, shift):
    sys = build_system(DyadicParams(d, N, dim=dim), GridShift(shift) if shift else None)
    b = random_symbol(sys, rng, blockdim=m)
    H = sys.basis_matrix.astype(complex)
    g = sys.cell_measure * b.function().values
    # H^H diag(mu g) H, one block row and column per basis function
    ref = np.einsum("cb,cij,cg->bigj", H.conj(), g, H).reshape(sys.dim_basis * m, -1)
    assert np.abs(mult_op(sys, b) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_mult_op_on_a_complex_table_holds_two_output_sized_arrays(rng):
    import tracemalloc

    sys = build_system(DyadicParams(3, 5))
    b = random_symbol(sys, rng)
    assert sys.basis_matrix.dtype == complex  # built before tracing
    b.function()
    tracemalloc.start()
    try:
        M = mult_op(sys, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output and the product (mu g) o H, conjugated in place; a
    # conjugated copy of either would make it three
    assert peak <= 2.2 * M.nbytes


@pytest.mark.parametrize("m", [1, 2])
def test_mult_op_holds_its_output_and_one_product_array(rng, m):
    import tracemalloc

    sys = build_system(DyadicParams(2, 8))
    b = random_symbol(sys, rng, blockdim=m)
    D = sys.dim_basis
    sys.basis_matrix  # built before tracing, as every caller finds it
    tracemalloc.start()
    try:
        mult_op(sys, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the complex output and the complex product (mu g) o H of the same size,
    # plus O(D m^2) for the synthesized symbol; a complex copy of a table adds
    # 16 D^2
    assert peak <= 2 * 16 * (D * m) ** 2 + 256 * D * m * m


# -- the paraproduct's spectrum from the cube tree ---------------------------


@pytest.mark.parametrize("d,N,dim,m,shift", [
    (2, 1, 1, 1, None), (2, 6, 1, 1, None), (2, 5, 1, 2, None), (2, 4, 1, 3, None),
    (3, 4, 1, 1, None), (3, 3, 1, 2, None), (3, 3, 1, 3, None), (5, 3, 1, 1, None),
    (5, 2, 1, 2, None), (2, 3, 2, 1, None), (2, 3, 2, 2, None), (2, 2, 3, 1, None),
    (2, 6, 1, 1, (1, 0, 1, 1, 0, 0)), (2, 4, 1, 2, (1, 0, 1, 1)), (2, 3, 2, 1, (3, 1, 2)),
])
def test_core_spectrum_is_the_dense_spectrum(rng, d, N, dim, m, shift):
    """`paraproduct_core` has one row block per cube of scales 0..N-1 and one
    column block per scale-(N-1) cube, is real for a scalar symbol, and its
    singular values padded with zeros are those of the dense operator within
    model_bound(D m, sigma_max); so are the sampler's norms."""
    sys = build_system(DyadicParams(d, N, dim), GridShift(shift) if shift else None)
    n_cubes, n_last = (sys.dim_basis - 1) // sys.n_colors, sys.n_cells // sys.d_eff
    ps = (0.3, 0.5, 1.0, 2.0, 4.0, np.inf)
    for _ in range(3):
        b = random_symbol(sys, rng, blockdim=m)
        C = paraproduct_core(sys, b)
        assert C.shape == (n_cubes * (1 if m == 1 else sys.n_colors * m), n_last * m)
        assert C.dtype == (float if m == 1 else complex)
        P = paraproduct(sys, b)
        dense = singular_values(P)
        sv = np.zeros(dense.size)
        sv[:min(C.shape)] = singular_values(C)
        assert np.abs(sv - dense).max() <= model_bound(dense.size, dense[0])
        assert _paraproduct_norms(sys, b, ps) == pytest.approx(schatten_norms(P, ps, m),
                                                               rel=1e-13)


@pytest.mark.parametrize("d,N,dim,m", [(2, 6, 1, 1), (3, 4, 1, 1), (2, 5, 1, 2), (3, 3, 1, 2),
                                       (2, 3, 2, 1)])
def test_core_norms_drop_the_same_rank_noise_on_sparse_symbols(rng, d, N, dim, m):
    """A symbol on a few scales leaves the operator rank-deficient: at p = 0.3
    a zero value read as LAPACK's noise would add about (1e-16)^0.3 = 2e-5 of
    the norm.  Padded to the same D m values, the core and the dense route
    drop the same noise, and agree to rounding."""
    sys = build_system(DyadicParams(d, N, dim))
    for scales in ((0,), (N - 1,), (0, 2)):
        b = random_symbol(sys, rng, blockdim=m, scales=scales)
        want = schatten_norms(paraproduct(sys, b), (0.3,), m)[0]
        assert _paraproduct_norms(sys, b, (0.3,))[0] == pytest.approx(want, rel=1e-13), scales


def test_core_draw_holds_the_core_not_the_operator(rng):
    import tracemalloc

    sys = build_system(DyadicParams(3, 6))
    b = random_symbol(sys, rng)
    core_bytes = paraproduct_core(sys, b).nbytes
    _paraproduct_norms(sys, b, (1.0,))  # the descendant tables are kept with the system
    tracemalloc.start()
    try:
        _paraproduct_norms(sys, b, (0.5, 1.0, 2.0, np.inf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the real core plus O(D) vectors; the complex operator alone is 16 D^2,
    # twelve times the core here
    assert peak <= 2 * core_bytes
    assert 16 * sys.dim_basis ** 2 >= 10 * core_bytes


@pytest.mark.parametrize("d,N,dim,m", [(3, 3, 1, 2), (4, 3, 1, 1), (5, 3, 1, 1), (2, 2, 3, 2)])
def test_triangle_op_structural_zeros_are_exact(rng, d, N, dim, m):
    """The own-slot diagonal blocks of Lambda_b (r = t) come out as exact 0,
    not as roots of unity that sum to rounding: no entry is a tiny nonzero."""
    sys = build_system(DyadicParams(d, N, dim))
    lam = np.abs(triangle_op(sys, random_symbol(sys, rng, blockdim=m)))
    assert not ((lam > 0) & (lam <= 1e-13 * lam.max())).any()

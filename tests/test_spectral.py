import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahaar.checks import model_bound
from parahaar.spectral import (block_diagonal_project, block_norms, block_singular_values,
                               schatten_norm, schatten_norms, singular_values,
                               triangular_project)


def test_identity_norms():
    assert schatten_norm(np.eye(3), 2) == pytest.approx(np.sqrt(3))
    D = np.diag([3.0, 4.0])
    assert schatten_norm(D, 1) == pytest.approx(7.0)
    assert schatten_norm(D, np.inf) == pytest.approx(4.0)


def test_unitary_invariance(rng):
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    U, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    V, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    for p in (0.5, 1, 2, np.inf):
        assert schatten_norm(U @ A @ V, p) == pytest.approx(schatten_norm(A, p), abs=1e-10)


def test_block_norms_single_blocks(rng):
    for m in (1, 2, 3, 5):
        x = rng.standard_normal((4, m, m)) + 1j * rng.standard_normal((4, m, m))
        ps = (0.5, 1, 2, 3, np.inf)
        for p, got in zip(ps, block_norms(x, ps)):
            for blk, lp in zip(x, got):
                sv = np.linalg.svd(blk, compute_uv=False)
                want = sv[0] if p == np.inf else (np.sum(sv ** p) / m) ** (1.0 / p)
                assert abs(lp - want) <= model_bound(m, want) / min(p, 1.0), (m, p)
    assert block_norms(np.array([[[-2.5]]]), (3,))[0].tolist() == [2.5]


@pytest.mark.parametrize("shape", [(2, 3), (1, 2, 3), (3,)])
def test_block_norms_refuse_blocks_that_are_not_square(shape):
    with pytest.raises(ValueError, match="square blocks"):
        block_norms(np.ones(shape), (2.0,))


@pytest.mark.parametrize("m", [2, 3])
def test_rank_one_blocks_at_small_p(rng, m):
    """A rank-one m x m block has sigma_1 = |u||v| and m - 1 zero values, so its
    L_p norm is sigma_1 m^(-1/p); the rounding noise in the zero values, which
    p < 1 would amplify, is dropped by the batched and the dense routes alike."""
    u = rng.standard_normal((20, m)) + 1j * rng.standard_normal((20, m))
    v = rng.standard_normal((20, m)) + 1j * rng.standard_normal((20, m))
    x = u[:, :, None] * v[:, None, :].conj()
    for p in (0.3, 0.5):
        want = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1) * m ** (-1.0 / p)
        tol = model_bound(m, want) / p
        assert (np.abs(block_norms(x, (p,))[0] - want) <= tol).all(), p
        dense = [schatten_norm(blk, p, m) for blk in x]
        assert (np.abs(np.array(dense) - want) <= tol).all(), p


def test_norm_rejects():
    with pytest.raises(ValueError):
        schatten_norm(np.zeros((2, 3)), 2)
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0)


def test_rank_one_norms():
    u = np.array([1.0, 1.0])
    T = np.outer(u, u)
    for p in (0.5, 1, 2, np.inf):
        assert schatten_norm(T, p) == pytest.approx(2.0)


def test_rank_one_orthogonal_trace():
    # nilpotent: trace and eigenvalues 0, singular values (1, 0)
    T = np.outer([1.0, 0], [0, 1.0])
    assert abs(np.trace(T)) < 1e-15
    for p in (0.5, 1, 2, np.inf):
        assert schatten_norm(T, p) == pytest.approx(1.0)


def test_rank_one_product_identity(rng):
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    T = np.outer(u, v.conj())
    target = np.linalg.norm(u) * np.linalg.norm(v)
    for p in (0.5, 1, 2, np.inf):
        assert schatten_norm(T, p) == pytest.approx(target, abs=1e-12)


def test_block_project_fixed_point():
    T = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(block_diagonal_project(T, [[0], [1], [2]]), T)
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(block_diagonal_project(M, [[0], [1]]), np.diag([1.0, 4.0]))


def test_block_project_contracts(rng):
    T = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    blocks = [range(0, 3), range(3, 7), range(7, 12)]
    E = block_diagonal_project(T, blocks)
    for p in (1, 2, 4):
        assert schatten_norm(E, p) <= schatten_norm(T, p) + 1e-10
    with pytest.raises(ValueError):
        block_diagonal_project(T, [range(0, 4), range(3, 12)])


@pytest.mark.parametrize("blocks,message", [
    ([[-1], [0, 1, 2]], "index -1 is not"),
    ([[0.5, 1], [2, 3]], "index 0.5 is not"),
    ([[True, 1], [0, 2, 3]], "index True is not"),
    ([[0, 4], [1, 2, 3]], "index 4 is not"),
    ([[0, 1], [2]], "no block holds index 3"),
    ([[0, 1, 1], [2, 3]], "overlap at index 1"),
    ([[0, 1], [1, 2, 3]], "overlap at index 1"),
])
def test_block_project_refuses_what_is_not_a_partition(blocks, message):
    T = np.arange(16.0).reshape(4, 4)
    with pytest.raises(ValueError, match=message):
        block_diagonal_project(T, blocks)
    # numpy integers and ranges are indices like ints
    E = block_diagonal_project(T, [np.array([0, 1]), range(2, 4)])
    assert np.array_equal(E, np.where(np.add.outer([0, 0, 1, 1], [0, 0, 1, 1]) % 2 == 0, T, 0))


@pytest.mark.parametrize("blockdim", [0, -2, 1.5, True])
def test_norms_refuse_a_blockdim_that_is_not_a_positive_integer(blockdim):
    with pytest.raises(ValueError, match="blockdim must be an integer >= 1"):
        schatten_norm(np.eye(4), 2, blockdim)
    with pytest.raises(ValueError, match="blockdim must be an integer >= 1"):
        schatten_norms(np.eye(4), [1, 2], blockdim)
    assert schatten_norm(np.eye(4), 2, np.int64(4)) == schatten_norm(np.eye(4), 2, 4) == 1.0


def test_triangular_examples():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(triangular_project(M, [0, 1]), [[0, 0], [3, 0]])
    U = np.triu(np.ones((4, 4)))
    assert np.abs(triangular_project(U, np.arange(4))).max() == 0.0


def test_triangular_preorder_ties():
    M = np.ones((4, 4))
    out = triangular_project(M, [0, 0, 1, 1])
    assert out.sum() == 4.0  # only the strict scale-2 x scale-1 block survives


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
def test_projections_refuse_a_matrix_that_is_not_square(shape):
    """A projection of an operator keeps its square shape: a wide matrix lost
    its last columns, and a tall one raised IndexError or numpy's broadcast
    message."""
    message = re.escape(f"expected a square matrix, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        block_diagonal_project(np.ones(shape), [[0, 1]])
    with pytest.raises(ValueError, match=message):
        triangular_project(np.ones(shape), [0, 1])


def test_power_identity(rng):
    T = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    for p in (1.0, 2.0, 4.0):
        lhs = schatten_norm(T, p) ** p
        rhs = schatten_norm(T.conj().T @ T, p / 2) ** (p / 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_orthogonal_ranges_lower(rng):
    dim = 15
    rows = np.array_split(np.arange(dim), 3)
    pieces = []
    for rr in rows:
        R = np.zeros((dim, dim), dtype=complex)
        R[rr] = rng.standard_normal((len(rr), dim)) + 1j * rng.standard_normal((len(rr), dim))
        pieces.append(R)
    T = sum(pieces)
    for p in (0.5, 1, 2):
        assert schatten_norm(T, p) ** p >= sum(schatten_norm(R, p) ** p for R in pieces) / 3 - 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.4, 0.8, 1.0, 1.7, 3.0]))
def test_triangle_inequalities(seed, p):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    if p >= 1:
        assert schatten_norm(A + B, p) <= schatten_norm(A, p) + schatten_norm(B, p) + 1e-10
    else:
        assert schatten_norm(A + B, p) ** p <= schatten_norm(A, p) ** p + schatten_norm(B, p) ** p + 1e-10


def test_normalized_block_convention(rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    big = np.kron(A, np.eye(3))
    for p in (1, 2, 4):
        assert schatten_norm(big, p, blockdim=3) == pytest.approx(schatten_norm(A, p), rel=1e-12)


def _fresh_norms(T):
    sv = np.linalg.svd(np.asarray(T, dtype=complex), compute_uv=False)
    kept = sv[sv > sv[0] * sv.size * np.finfo(float).eps]
    return [float(np.sum(kept)), float(np.sum(kept**2) ** 0.5), float(sv[0])]


def test_norms_match_fresh_svd_bitwise(rng):
    T = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    expected = _fresh_norms(T)
    assert [schatten_norm(T, p) for p in (1, 2, np.inf)] == expected
    assert schatten_norms(T, (1, 2, np.inf)) == expected


def test_schatten_norms_equal_one_p_at_a_time(rng):
    T = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    T[:, 0] = 0.0  # rank-deficient, so the noise cut applies
    ps = (0.3, 1, 2.5, 4, np.inf)
    for m in (1, 2):
        assert schatten_norms(T, ps, blockdim=m) == [schatten_norm(T, p, m) for p in ps]
    assert schatten_norms(T, ()) == []
    with pytest.raises(ValueError):
        schatten_norms(T, (1, -1))


def test_norms_follow_in_place_mutation(rng):
    T = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    before = [schatten_norm(T, p) for p in (1, 2, np.inf)]
    T[3] *= 5.0
    after = [schatten_norm(T, p) for p in (1, 2, np.inf)]
    assert after == _fresh_norms(T)
    assert after != before


def test_real_and_complex_agree(rng):
    A = rng.standard_normal((6, 6))
    ps = (0.5, 1, 2, np.inf)
    assert [schatten_norm(A, p) for p in ps] == schatten_norms(A.astype(complex), ps)


def _deflation_cases(rng):
    """(name, T) pairs: random zero rows and/or columns, none, one entry, all zero."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = []
    for k in range(6):
        T = cplx(12, 12)
        if k % 3 != 1:
            T[rng.choice(12, size=int(rng.integers(1, 8)), replace=False)] = 0.0
        if k % 3 != 0:
            T[:, rng.choice(12, size=int(rng.integers(1, 8)), replace=False)] = 0.0
        cases.append((f"random-{k}", T))
    one = np.zeros((7, 7), dtype=complex)
    one[4, 2] = 3.0 - 4.0j
    cases += [("single-entry", one), ("all-zero", np.zeros((5, 5)))]
    # a blockdim m = 2 operator: the Kronecker factor zeroes pairs of rows/columns
    A = cplx(6, 6)
    A[[1, 4]] = 0.0
    A[:, [0, 2, 5]] = 0.0
    cases.append(("blockdim-2", np.kron(A, cplx(2, 2))))
    return cases


def test_deflated_singular_values_match_full_svd(rng):
    for name, T in _deflation_cases(rng):
        full = np.linalg.svd(T, compute_uv=False)
        sv = singular_values(T)
        assert sv.shape == (T.shape[0],), name
        assert np.all(np.diff(sv) <= 0), name
        assert np.abs(sv - full).max() <= 1e-13 * max(full[0], 1.0), name


def test_deflated_norms_match_full_svd(rng):
    ps = (0.5, 1, 2, 3, np.inf)
    for name, T in _deflation_cases(rng):
        m = 2 if name == "blockdim-2" else 1
        full = np.linalg.svd(T, compute_uv=False)
        expected = []
        for p in ps:
            if p == np.inf:
                expected.append(full[0])
                continue
            kept = full[full > full[0] * full.size * np.finfo(float).eps] if full[0] > 0 else full
            expected.append((np.sum(kept**p) / m) ** (1.0 / p))
        got = schatten_norms(T, ps, blockdim=m)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-300), name
    assert schatten_norms(np.zeros((4, 4)), ps) == [0.0] * len(ps)


def test_no_zero_line_goes_to_lapack_unchanged(rng):
    T = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
    T[3, :5] = 0.0  # zero entries, but no zero row or column
    assert np.array_equal(singular_values(T), np.linalg.svd(T, compute_uv=False))


# -- real LAPACK for matrices that are real up to row phases ----------------

EPS = np.finfo(float).eps


def _core(T):
    """T without its exactly-zero rows and columns, as `singular_values` deflates it."""
    T = np.asarray(T, dtype=complex)
    nonzero = T != 0
    return T[np.ix_(nonzero.any(axis=1), nonzero.any(axis=0))]


@pytest.fixture
def svd_dtypes(monkeypatch):
    """dtype of every matrix that reaches np.linalg.svd during the test."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def _paraproduct_matrix(d, depth, dim, blockdim=1, seed=0):
    from parahaar.dyadic import DyadicParams, build_system
    from parahaar.paraproducts import paraproduct, random_symbol

    sys_ = build_system(DyadicParams(d, depth, dim))
    return paraproduct(sys_, random_symbol(sys_, np.random.default_rng(seed), blockdim))


def _phase_real_cases(rng):
    """(name, T): d = 2 paraproducts up to D = 1024 and diag(phases) @ real A,
    each with a deflated core of at least 32 rows and columns."""
    cases = [(f"d2-dim1-depth{k}", _paraproduct_matrix(2, k, 1, seed=k)) for k in (6, 8, 10)]
    cases += [(f"d2-dim2-depth{k}", _paraproduct_matrix(2, k, 2, seed=k)) for k in (4, 5)]
    for n in (40, 120):
        A = rng.standard_normal((n, n))
        A[:, :3] = 0.0  # each row's first nonzero entry lies past column 0
        A[n // 2] = 0.0  # a zero row, deflated
        phase = np.exp(2j * np.pi * rng.uniform(size=n))
        phase[:4] = [1, -1, 1j, -1j]
        cases.append((f"phases-{n}", phase[:, None] * A))
        low = rng.standard_normal((n, 3)) @ rng.standard_normal((3, n))  # rank 3
        cases.append((f"phases-rank3-{n}", phase[:, None] * low))
    return cases


def test_phase_real_path_matches_complex_lapack(rng, svd_dtypes):
    for name, T in _phase_real_cases(rng):
        core = _core(T)
        del svd_dtypes[:]
        sv = singular_values(T)
        assert svd_dtypes == [np.dtype(float)], name  # the real path ran
        ref = np.linalg.svd(core, compute_uv=False)
        k = ref.size
        assert np.all(sv[k:] == 0.0), name
        assert np.abs(sv[:k] - ref).max() <= 16 * EPS * ref[0] * np.sqrt(T.shape[0]), name


def _fallback_cases(rng):
    """(name, T) whose core is not real up to row phases, or has fewer than 32 rows or columns."""
    n = 40
    generic = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    generic[4] = 0.0
    phase = np.exp(2j * np.pi * rng.uniform(size=n))
    near = phase[:, None] * rng.standard_normal((n, n))
    near[7, 11] += 1e-10j
    edge = phase[:, None] * np.ones((n, n))
    edge[2, 3] *= np.exp(64j * EPS)  # a relative residue of 64 eps in one entry
    small = phase[:31, None] * rng.standard_normal((31, 31))
    return [
        ("d3-dim1", _paraproduct_matrix(3, 5, 1)),
        ("d2-block2", _paraproduct_matrix(2, 6, 1, blockdim=2)),
        ("generic", generic),
        ("phase-real-plus-1e-10i", near),
        ("phase-real-plus-64-eps", edge),
        ("small-phase-real", small),
        ("small-d2-dim1", _paraproduct_matrix(2, 5, 1)),  # core 31 x 16
    ]


def test_fallback_is_complex_lapack_bit_for_bit(rng, svd_dtypes):
    for name, T in _fallback_cases(rng):
        core = _core(T)
        del svd_dtypes[:]
        sv = singular_values(T)
        assert svd_dtypes == [np.dtype(complex)], name
        ref = np.linalg.svd(core, compute_uv=False)
        assert np.array_equal(sv[: ref.size], ref), name
        assert np.all(sv[ref.size:] == 0.0), name


def test_singular_values_leave_the_input_alone(rng):
    for name, T in _phase_real_cases(rng) + _fallback_cases(rng):
        T = np.asarray(T, dtype=complex)
        before = T.copy()
        T.setflags(write=False)  # an in-place write would raise
        singular_values(T)
        assert np.array_equal(T, before), name


def test_phase_real_s2_is_frobenius(rng):
    for name, T in _phase_real_cases(rng):
        frob = np.linalg.norm(T)
        assert abs(schatten_norm(T, 2) - frob) <= 1e-12 * frob, name


def _two_step_singular_values(T):
    """The deflation by two `compress` calls that the single gather replaces."""
    from parahaar.spectral import _REAL_PATH_MIN, _real_up_to_row_phases

    T = np.asarray(T, dtype=complex)
    nonzero = T != 0
    rows = nonzero.any(axis=1)
    cols = nonzero.any(axis=0)
    n, r, c = T.shape[0], np.count_nonzero(rows), np.count_nonzero(cols)
    sv = np.zeros(n)
    if r and c:
        core = T if r == n and c == n else T.compress(rows, axis=0).compress(cols, axis=1)
        real = _real_up_to_row_phases(core) if min(r, c) >= _REAL_PATH_MIN else None
        sv[: min(r, c)] = np.linalg.svd(core if real is None else real, compute_uv=False)
    return sv


def test_single_gather_gives_lapack_the_same_input(rng, monkeypatch):
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    generic = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    cases = [
        ("real-path", _paraproduct_matrix(2, 7, 1), float),
        ("complex-path", _paraproduct_matrix(3, 4, 1), complex),
        ("no-zero-row", generic, complex),
        ("below-real-path-min", _paraproduct_matrix(2, 5, 1), complex),  # core 31 x 16
        ("all-zero", np.zeros((5, 5)), None),
        ("1x1", np.array([[2.0 - 1.0j]]), complex),
    ]
    for name, T, dtype in cases:
        del seen[:]
        sv = singular_values(T)
        got = list(seen)
        del seen[:]
        ref = _two_step_singular_values(T)
        assert sv.tobytes() == ref.tobytes(), name
        assert len(got) == len(seen) == (dtype is not None), name
        for a, b in zip(got, seen):
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes(), name


def test_deflation_copies_no_full_width_rows():
    import tracemalloc

    T = _paraproduct_matrix(2, 10, 1)
    n = T.shape[0]
    r, c = n - 1, n // 2  # the coarse row and the finest-scale columns are zero
    tracemalloc.start()
    try:
        singular_values(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the complex core, the two real cores of the real path and its boolean
    # comparison, plus O(n) vectors; a full-width (r, n) copy would add 16 r c
    assert peak <= 16 * r * c + 2 * 8 * r * c + r * c + 256 * n


# -- the core as a slice, and the row-blocked real test --------------------


def _one_shot_real_up_to_row_phases(C):
    """The real test over all of C at once: the reference for the row-blocked one."""
    lead = C[np.arange(C.shape[0]), (C != 0).argmax(axis=1)]
    u = lead / np.abs(lead)
    ur, ui = u.real[:, None], u.imag[:, None]
    resid = np.abs(ur * C.imag - ui * C.real)
    if not (resid <= np.abs(C) * (4 * EPS)).all():
        return None
    return ur * C.real + ui * C.imag


def _gathered_singular_values(T):
    """LAPACK on the core gathered by np.ix_, through the one-shot real test."""
    from parahaar.spectral import _REAL_PATH_MIN

    core = _core(T)
    sv = np.zeros(T.shape[0])
    if core.size:
        real = _one_shot_real_up_to_row_phases(core) if min(core.shape) >= _REAL_PATH_MIN else None
        sv[: min(core.shape)] = np.linalg.svd(core if real is None else real, compute_uv=False)
    return sv


def _sliced_cases():
    """(name, T, real) for paraproducts, whose nonzero rows and columns are runs."""
    from parahaar.dyadic import DyadicParams, GridShift, build_system
    from parahaar.paraproducts import paraproduct, random_symbol

    cases = []
    for name, d, depth, dim, m, shift, real in [
        ("d2", 2, 7, 1, 1, None, True), ("d3", 3, 4, 1, 1, None, False),
        ("dim2", 2, 4, 2, 1, None, True), ("m2", 2, 6, 1, 2, None, False),
        ("shifted", 2, 7, 1, 1, (1, 0, 1, 1, 0, 0, 1), True),
    ]:
        sys_ = build_system(DyadicParams(d, depth, dim), GridShift(shift) if shift else None)
        b = random_symbol(sys_, np.random.default_rng(depth), blockdim=m)
        cases.append((name, paraproduct(sys_, b), real))
    return cases


def test_paraproduct_cores_are_sliced_and_match_a_gathered_core_bit_for_bit(monkeypatch):
    from parahaar import spectral

    inputs = []
    real_test = spectral._real_up_to_row_phases
    svd = np.linalg.svd

    def spy_real(C):
        inputs.append(C)
        return real_test(C)

    def spy_svd(a, *args, **kwargs):
        inputs.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(spectral, "_real_up_to_row_phases", spy_real)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    for name, T, real in _sliced_cases():
        del inputs[:]
        sv = singular_values(T)
        ref = _gathered_singular_values(T)
        assert sv.tobytes() == ref.tobytes(), name
        # the complex core LAPACK or the real test reads is a view of T
        core = inputs[0]
        assert core.dtype == complex and np.shares_memory(core, T), name
        assert core.shape == _core(T).shape, name
        assert (inputs[-1].dtype == float) == real, name


def test_scattered_zero_lines_are_gathered_bit_for_bit(rng):
    for n, real in ((50, True), (50, False), (12, False)):
        A = rng.standard_normal((n, n)) if real else rng.standard_normal((n, n)) + 1j
        T = np.exp(2j * np.pi * rng.uniform(size=n))[:, None] * A
        T[[3, 9, n - 5]] = 0.0
        T[:, [0, 7, n - 2]] = 0.0
        assert singular_values(T).tobytes() == _gathered_singular_values(T).tobytes(), n


def _real_test_cores(rng):
    """Complex cores real up to row phases, across one and several row blocks."""
    from parahaar.spectral import _ROW_BLOCK

    cores = []
    for rows in (1, 33, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK - 7):
        A = rng.standard_normal((rows, 40))
        A[:, :2] = 0.0  # each row's first nonzero entry lies past column 0
        A[rows // 2, : 20] = 0.0
        phase = np.exp(2j * np.pi * rng.uniform(size=rows))
        cores.append(phase[:, None] * A)
    return cores


def test_row_blocked_real_test_equals_the_one_shot_formula(rng):
    from parahaar.spectral import _ROW_BLOCK, _real_up_to_row_phases

    for C in _real_test_cores(rng):
        got, ref = _real_up_to_row_phases(C), _one_shot_real_up_to_row_phases(C)
        assert got.dtype == float and got.tobytes() == ref.tobytes(), C.shape
        # a core sliced out of a wider matrix reads the same values
        wide = np.zeros((C.shape[0] + 2, C.shape[1] + 3), dtype=complex)
        wide[1:-1, 2:-1] = C
        assert _real_up_to_row_phases(wide[1:-1, 2:-1]).tobytes() == ref.tobytes(), C.shape
    # the only non-real entry sits in one row of the last block
    C = _real_test_cores(rng)[-1]
    C[C.shape[0] - 1, 5] *= np.exp(1e-9j)
    assert (C.shape[0] - 1) // _ROW_BLOCK > 0
    assert _one_shot_real_up_to_row_phases(C) is None
    assert _real_up_to_row_phases(C) is None


def test_singular_values_hold_a_real_core_and_one_row_block_at_most():
    import tracemalloc

    from parahaar.spectral import _ROW_BLOCK

    T = _paraproduct_matrix(2, 9, 1)
    n = T.shape[0]
    r, c = n - 1, n // 2  # the coarse row and the finest-scale columns are zero
    tracemalloc.start()
    try:
        singular_values(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the boolean mask, the float core, and per row block two float and a few
    # boolean temporaries, plus O(n) vectors; a gathered complex core would
    # add 16 r c
    assert peak <= n * n + 8 * r * c + 24 * _ROW_BLOCK * c + 256 * n


# -- rectangular cores and non-finite input ---------------------------------


def test_a_rectangular_core_goes_to_lapack_as_it_is(rng, svd_dtypes):
    real = rng.standard_normal((50, 20))
    real[3] = 0.0  # a zero row is not deflated: the caller reduced the core
    cplx = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    for C, dtype in ((real, float), (cplx, complex)):
        del svd_dtypes[:]
        sv = singular_values(C)
        assert svd_dtypes == [np.dtype(dtype)]
        assert sv.tobytes() == np.linalg.svd(C, compute_uv=False).tobytes()
    with pytest.raises(ValueError, match="square"):
        schatten_norms(real, (1.0,))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_raise(rng, bad):
    """A non-finite entry raises ValueError rather than giving nan or inf
    norms or LAPACK's LinAlgError, on every path that reaches LAPACK and on
    the 1 x 1 blocks that do not."""
    real = rng.standard_normal((40, 40))  # the real path's size
    real[7, 3] = bad
    small = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    small[2, 1] = bad
    core = rng.standard_normal((50, 33))  # a real rectangular core
    core[10, 30] = bad
    for T in (real, small, core, np.diag([bad, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            singular_values(T)
    for T in (real, small, np.diag([bad, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            schatten_norm(T, 1)
    block = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    block[1, 0, 1] = bad
    for blocks in (np.array([[[bad]]]), block):
        with pytest.raises(ValueError, match="finite"):
            block_singular_values(blocks)
        with pytest.raises(ValueError, match="finite"):
            block_norms(blocks, (1.0,))

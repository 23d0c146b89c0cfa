import re

import numpy as np
import pytest

from parahaar.dyadic import (CubeId, DyadicParams, FiniteDyadicSystem, GridShift, HaarIndex,
                             build_system)
from parahaar.checks import model_bound
from parahaar.paraproducts import Symbol, r_op, random_symbol
from parahaar.shifts import (ShiftSpec, assemble_shift, averaged_shift_cell_matrix,
                             coefficient_radius, commutator_growth_sweep,
                             phi_blocks, random_shift)
from parahaar.spectral import schatten_norm


def test_coefficient_radius_examples():
    assert coefficient_radius(1, 1, 1, 0) == pytest.approx(0.5)
    assert coefficient_radius(1, 0, 0, 0) == pytest.approx(1.0)
    assert coefficient_radius(2, 1, 1, 0) == pytest.approx(0.25)


def test_spec_rejects_violation():
    K = CubeId(0, (0,))
    I = CubeId(1, (0,))
    J = CubeId(1, (1,))
    for bad in (0.51, np.nan, complex(np.nan, 0.0), np.inf):
        with pytest.raises(ValueError):
            ShiftSpec(1, 1, 1, {(I, J, K, 1, 1): bad})
    with pytest.raises(ValueError):
        ShiftSpec(1, 1, 1, {(I, CubeId(1, (1, 0)), K, 1, 1): 0.1})  # a 2-d label in a 1-d spec
    ShiftSpec(1, 1, 1, {(I, J, K, 1, 1): 0.5})  # at the bound is fine
    # colours and labels the system cannot hold are named at assembly, never aliased
    sys = build_system(DyadicParams(2, 2))
    b = random_symbol(sys, np.random.default_rng(0))
    for key in ((I, J, K, 5, 1), (I, J, K, 1, 0), (CubeId(1, (2,)), J, K, 1, 1),
                (I, CubeId(2, (0,)), K, 1, 1), (I, J, CubeId(-1, (0,)), 1, 1)):
        spec = ShiftSpec(1, 1, 1, {(I, J, K, 1, 1): 0.1, key: 0.1})
        for build in (lambda: assemble_shift(sys, spec), lambda: phi_blocks(sys, spec, b)):
            with pytest.raises(ValueError, match=re.escape(str(key))):
                build()
    with pytest.raises(ValueError):
        assemble_shift(build_system(DyadicParams(2, 2, dim=2)), ShiftSpec(1, 1, 1, {}))


def test_assembly_rejects_cubes_outside_their_generation():
    # I at scale 2 under a scale-1 K is no generation-1 descendant; nor is a
    # same-scale cube outside K, nor a child of K on a grid that shifts it away
    sys = build_system(DyadicParams(2, 4))
    for key in ((CubeId(2, (3,)), CubeId(1, (1,)), CubeId(1, (0,)), 1, 1),
                (CubeId(2, (0,)), CubeId(2, (2,)), CubeId(1, (0,)), 1, 1),
                (CubeId(2, (2,)), CubeId(2, (1,)), CubeId(1, (0,)), 1, 1)):
        spec = ShiftSpec(1, 1, 1, {key: 0.4})
        with pytest.raises(ValueError, match=re.escape(str(key))):
            assemble_shift(sys, spec)
    ok = (CubeId(2, (0,)), CubeId(2, (1,)), CubeId(1, (0,)), 1, 1)
    assert assemble_shift(sys, ShiftSpec(1, 1, 1, {ok: 0.4})).any()
    shifted = build_system(DyadicParams(2, 4), GridShift((0, 1, 0, 0)))
    kids = [c.index for c in shifted.children(CubeId(1, (0,)))]
    assert kids != [(0,), (1,)]
    with pytest.raises(ValueError, match="descendant"):
        assemble_shift(shifted, ShiftSpec(1, 1, 1, {ok: 0.4}))
    # the generation follows i and j: (0, 2) puts I = K and J two scales down
    spec = ShiftSpec(0, 2, 1, {(CubeId(0, (0,)), CubeId(1, (0,)), CubeId(0, (0,)), 1, 1): 0.1})
    with pytest.raises(ValueError, match="descendant"):
        assemble_shift(sys, spec)


def test_random_shift_deterministic():
    sys = build_system(DyadicParams(2, 4))
    s1 = random_shift(sys, 1, 2, 99)
    s2 = random_shift(sys, 1, 2, 99)
    for name in ("cubes", "colors", "values"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))
        assert not getattr(s1, name).flags.writeable
    assert len(s1.values) == (1 + 2) * 2 * 4  # K at scales 0 and 1, 2 cubes I, 4 cubes J
    I, J, K, xi, eta = s1.entry(0)
    assert (K, xi, eta) == (CubeId(0, (0,)), 1, 1)
    assert I in sys.children(K) and J in sys.children(sys.children(K)[0])


# Reference for the array path of random_shift and assemble_shift: the scalar
# draws, the coefficient dict, one SVD per cube K and HaarIndex lookups, one
# coefficient at a time.
def _reference_shift_matrix(sys, i, j, rng, blockdim=1):
    def generation(cube, g):
        level = [cube]
        for _ in range(g):
            level = [kid for c in level for kid in sys.children(c)]
        return level

    colors = range(1, sys.n_colors + 1)
    coeffs = {}
    for k in range(0, sys.params.depth - max(i, j)):
        bound = coefficient_radius(sys.params.dim, i, j, k)
        for K in sys.cubes_by_scale[k]:
            block = {}
            for I in generation(K, i):
                for J in generation(K, j):
                    for xi in colors:
                        for eta in colors:
                            r = np.sqrt(rng.uniform(0.0, 1.0)) * bound
                            phi = rng.uniform(0.0, 2 * np.pi)
                            block[(I, J, xi, eta)] = r * np.exp(1j * phi)
            rows = [(J, eta) for J in sorted(generation(K, j), key=lambda c: c.index)
                    for eta in colors]
            cols = [(I, xi) for I in sorted(generation(K, i), key=lambda c: c.index)
                    for xi in colors]
            M = np.zeros((len(rows), len(cols)), dtype=complex)
            for (I, J, xi, eta), a in block.items():
                M[rows.index((J, eta)), cols.index((I, xi))] = a
            norm = np.linalg.svd(M, compute_uv=False)[0]
            coeffs.update({key: a / norm if norm > 1.0 else a for key, a in block.items()})
    S = np.zeros((sys.dim_basis, sys.dim_basis), dtype=complex)
    for (I, J, xi, eta), a in coeffs.items():
        S[sys.position(HaarIndex(J, eta)), sys.position(HaarIndex(I, xi))] += a
    return np.kron(S, np.eye(blockdim)) if blockdim > 1 else S


@pytest.mark.parametrize("depth, dim, shift, blockdim", [
    (5, 1, None, 1), (3, 2, None, 1), (4, 1, (1, 0, 1, 1), 1), (3, 2, (3, 1, 2), 1),
    (4, 1, None, 2),
])
def test_array_path_equals_reference(depth, dim, shift, blockdim):
    sys = build_system(DyadicParams(2, depth, dim), None if shift is None else GridShift(shift))
    for i in range(3):
        for j in range(3):
            if max(i, j) + 1 > depth:
                continue
            for seed in (0, 1):
                ref = _reference_shift_matrix(sys, i, j, np.random.default_rng(seed), blockdim)
                S = assemble_shift(sys, random_shift(sys, i, j, seed), blockdim)
                assert np.array_equal(S, ref), (i, j, seed)


def test_array_path_shares_a_generator():
    sys = build_system(DyadicParams(2, 4))
    ours, ref = np.random.default_rng(3), np.random.default_rng(3)
    for i, j in ((0, 0), (1, 2), (2, 1)):
        assert np.array_equal(assemble_shift(sys, random_shift(sys, i, j, ours)),
                              _reference_shift_matrix(sys, i, j, ref))
    assert ours.random() == ref.random()


def test_window_too_shallow():
    sys = build_system(DyadicParams(2, 2))
    with pytest.raises(ValueError):
        random_shift(sys, 1, 2, 0)


def test_assemble_zero_and_rank_one():
    sys = build_system(DyadicParams(2, 2))
    assert np.abs(assemble_shift(sys, ShiftSpec(0, 1, 1, {}))).max() == 0.0
    K = CubeId(0, (0,))
    J = CubeId(1, (0,))
    spec = ShiftSpec(0, 1, 1, {(K, J, K, 1, 1): 0.3j})
    S = assemble_shift(sys, spec)
    assert schatten_norm(S, np.inf) == pytest.approx(0.3)
    assert S[sys.position(HaarIndex(J, 1)), sys.position(HaarIndex(K, 1))] == 0.3j


def test_contractivity(rng):
    for dim, depth in ((1, 4), (2, 3)):
        sys = build_system(DyadicParams(2, depth, dim=dim))
        for t in range(25):
            i = int(rng.integers(0, depth))
            j = int(rng.integers(0, depth - i)) if depth - i > 0 else 0
            if max(i, j) + 1 > depth:
                continue
            spec = random_shift(sys, i, j, int(rng.integers(0, 2**31)))
            S = assemble_shift(sys, spec)
            assert schatten_norm(S, np.inf) <= 1.0 + 1e-10


def _canvas(sys, blocks, m=1):
    """Each (rows, cols, B_K) placed on its own zero (D m)^2 canvas."""
    out = {}
    for K, (rows, cols, B) in blocks.items():
        dense = np.zeros((sys.dim_basis * m,) * 2, dtype=complex)
        dense[np.ix_(rows, cols)] = B
        out[K] = dense
    return out


def test_phi_identity_and_blocks(rng):
    sys = build_system(DyadicParams(2, 4))
    spec = random_shift(sys, 1, 2, 5)
    b = random_symbol(sys, rng)
    phi, blocks = phi_blocks(sys, spec, b)
    total = sum(_canvas(sys, blocks).values())
    haar = np.arange(sys.dim_basis) > 0
    assert np.abs((phi - total)[:, haar]).max() < 1e-12 * max(1, np.abs(phi).max())
    keys = list(blocks)
    for a in range(len(keys)):
        for c in range(a + 1, len(keys)):
            # distinct cubes K share no row and no column of Phi
            assert not set(blocks[keys[a]][0]) & set(blocks[keys[c]][0])
            assert not set(blocks[keys[a]][1]) & set(blocks[keys[c]][1])
    for p in (2.0, 4.0):
        lhs = schatten_norm(phi[np.ix_(haar, haar)], p) ** p
        rhs = sum(schatten_norm(B.conj().T @ B, p / 2) ** (p / 2) for _, _, B in blocks.values())
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_phi_constant_symbol():
    sys = build_system(DyadicParams(2, 3))
    spec = random_shift(sys, 1, 1, 1)
    b = Symbol(sys, {}, coarse_mean=np.array([[2.0]]))
    phi, blocks = phi_blocks(sys, spec, b)
    assert np.abs(phi).max() < 1e-13
    assert all(np.abs(B).max() < 1e-13 for _, _, B in blocks.values())


def test_phi_blockvalued(rng):
    sys = build_system(DyadicParams(2, 3))
    spec = random_shift(sys, 1, 1, 2)
    b = random_symbol(sys, rng, blockdim=2)
    phi, blocks = phi_blocks(sys, spec, b)
    total = sum(_canvas(sys, blocks, 2).values())
    haar = np.repeat(np.arange(sys.dim_basis) > 0, 2)
    assert np.abs((phi - total)[:, haar]).max() < 1e-12 * max(1, np.abs(phi).max())


def _dense_phi_blocks(sys, spec, b):
    """The dense assembly `phi_blocks` replaced: one zero (D m)^2 block per K."""
    from parahaar.shifts import _slots

    m = b.blockdim
    means = sys.cube_means(b.blocks)
    start = np.cumsum([0] + [len(x) for x in means])
    scale, index = spec.cubes[:, :2, 0], spec.cubes[:, :2, 1:]
    avg = np.concatenate(means)[start[scale] + sys.cube_rank(scale, np.moveaxis(index, -1, 0))]
    terms = spec.values[:, None, None] * (avg[:, 0] - avg[:, 1])
    rows, cols, _, _ = _slots(sys, spec)
    owners, first, owner = np.unique(spec.cubes[:, 2], axis=0, return_index=True,
                                     return_inverse=True)
    owner = owner.reshape(-1)
    D = sys.dim_basis
    B = np.zeros((len(owners), D * m, D * m), dtype=complex)
    band = np.arange(m)
    np.add.at(B, (owner[:, None, None], rows[:, None, None] * m + band[:, None],
                  cols[:, None, None] * m + band), terms)
    return {spec.entry(n)[2]: B[owner[n]] for n in np.sort(first)}


@pytest.mark.parametrize("dim,depth,i,j,m,shift", [
    (1, 4, 1, 2, 1, None), (1, 4, 2, 0, 1, None), (1, 5, 0, 0, 2, None),
    (1, 4, 1, 1, 1, (1, 0, 1, 1)), (2, 3, 1, 0, 1, None), (2, 3, 0, 1, 2, None),
    (2, 2, 1, 1, 1, (3, 1))])
def test_phi_blocks_on_a_canvas_equal_the_dense_blocks(rng, dim, depth, i, j, m, shift):
    """Placed on a zero canvas, each compact block is the dense block bit for
    bit, on K's generation-j rows and generation-i columns; distinct K share
    no row and no column."""
    sys = build_system(DyadicParams(2, depth, dim=dim), GridShift(shift) if shift else None)
    spec = random_shift(sys, i, j, int(rng.integers(2**31)))
    b = random_symbol(sys, rng, blockdim=m)
    _, blocks = phi_blocks(sys, spec, b)
    want = _dense_phi_blocks(sys, spec, b)
    assert list(blocks) == list(want)
    for K, dense in _canvas(sys, blocks, m).items():
        assert dense.tobytes() == want[K].tobytes()
        rows, cols, _ = blocks[K]
        k = K.scale
        for got, g in ((rows, j), (cols, i)):
            slots = sys.haar_slots(k + g)[sys.descendants(k, g)[sys.cube_rank(k, K.index)]]
            assert np.array_equal(got, (slots.ravel()[:, None] * m + np.arange(m)).ravel())
    for axis in (0, 1):
        seen = np.concatenate([block[axis] for block in blocks.values()])
        assert len(np.unique(seen)) == len(seen)


def test_phi_blocks_hold_no_dense_block_per_cube(rng):
    """At d = 2 depth 7 and (i, j) = (0, 0) the 127 dense blocks took 34 MB;
    the compact ones leave the call's peak at no more than 4 MB."""
    import tracemalloc

    sys = build_system(DyadicParams(2, 7))
    spec = random_shift(sys, 0, 0, 3)
    b = random_symbol(sys, rng)
    phi_blocks(sys, spec, b)  # tables built once per system are not counted
    tracemalloc.start()
    try:
        _, blocks = phi_blocks(sys, spec, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == sys.dim_basis - 1 and peak <= 4 * 2**20


def test_phi_blocks_validates_its_spec_once(monkeypatch, rng):
    """One `_slots` call per `phi_blocks` call (two while S came from
    `assemble_shift`), and Phi is [S, R_b] of `assemble_shift`'s S bit for bit."""
    from parahaar import shifts

    calls, slots = [], shifts._slots
    monkeypatch.setattr(shifts, "_slots", lambda *args: calls.append(args) or slots(*args))
    sys = build_system(DyadicParams(2, 4))
    spec = random_shift(sys, 1, 1, 5)
    b = random_symbol(sys, rng, blockdim=2)
    phi, _ = phi_blocks(sys, spec, b)
    assert len(calls) == 1
    S, R = assemble_shift(sys, spec, 2), r_op(sys, b)
    assert phi.tobytes() == (S @ R - R @ S).tobytes()


def test_growth_sweep_rows(rng):
    sys = build_system(DyadicParams(2, 5))
    b = random_symbol(sys, rng)
    rows = commutator_growth_sweep(sys, b, [2.0], [(0, 0), (1, 2)], seeds=[0, 1])
    assert len(rows) == 4
    assert {r["i"] for r in rows} == {0, 1}
    assert all(r["norm"] >= 0 and r["besov"] > 0 for r in rows)
    const = Symbol(sys, {}, coarse_mean=np.array([[1.0]]))
    rows0 = commutator_growth_sweep(sys, const, [2.0], [(1, 1)], seeds=[0])
    assert rows0[0]["norm"] < 1e-12


def test_growth_sweep_several_p_equals_one_p_at_a_time(rng):
    sys = build_system(DyadicParams(2, 4))
    b = random_symbol(sys, rng)
    ij = [(0, 0), (1, 0)]
    both = commutator_growth_sweep(sys, b, [1.0, 2.0], ij, seeds=[0, 1])
    assert both == (commutator_growth_sweep(sys, b, [1.0], ij, seeds=[0, 1])
                    + commutator_growth_sweep(sys, b, [2.0], ij, seeds=[0, 1]))
    assert [r["p"] for r in both] == [1.0] * 4 + [2.0] * 4


def test_average_equivariance():
    params = DyadicParams(2, 4)
    avg = averaged_shift_cell_matrix(params, 1, 0)
    n = avg.shape[0]
    for delta in (1, 5):
        P = np.roll(np.eye(n), delta, axis=0)
        assert np.abs(P.conj().T @ avg @ P - avg).max() < 1e-10


def test_shifted_system_shift(rng):
    # shifts assemble on shifted systems through the same code path
    sys = build_system(DyadicParams(2, 3), GridShift((1, 0, 1)))
    spec = random_shift(sys, 1, 1, 11)
    S = assemble_shift(sys, spec)
    assert schatten_norm(S, np.inf) <= 1.0 + 1e-10


# Reference for averaged_shift_cell_matrix: the coefficient of (I, J, K) from
# the cells where I, J and K start, one dict-built spec per grid shift.
def _phase_rule(sys, I, J, K):
    N, A = sys.params.depth, sys.axis_cells

    def start(c):
        offset = sum((sys.shift.omega[s] & 1) * 2 ** (N - s - 1) for s in range(c.scale, N))
        return (c.index[0] * (A // 2**c.scale) + offset) % A

    rel_i = ((start(I) - start(K)) % A) // (A // 2**I.scale)
    rel_j = ((start(J) - start(K)) % A) // (A // 2**J.scale)
    bound = coefficient_radius(1, I.scale - K.scale, J.scale - K.scale, K.scale)
    n_i = 2 ** (I.scale - K.scale)
    n_j = 2 ** (J.scale - K.scale)
    return bound * np.exp(2j * np.pi * (rel_i / n_i + rel_j / (2 * n_j)))


def _reference_averaged_shift(params, i, j):
    """The average over the grids of B S B^H |cell|, and of |B| |S| |B|^T |cell|:
    the sum of the moduli of its terms, the scale of the tolerance model."""
    N = params.depth
    acc = np.zeros((2**N, 2**N), dtype=complex)
    scale = np.zeros((2**N, 2**N))
    for word in range(2**N):
        sysw = FiniteDyadicSystem(params, GridShift(tuple((word >> s) & 1 for s in range(N))))
        cubes = sysw.cubes_by_scale
        coeffs = {}
        for k in range(0, N - max(i, j)):
            for K, gen_i, gen_j in zip(cubes[k], sysw.descendants(k, i).tolist(),
                                       sysw.descendants(k, j).tolist()):
                for I in (cubes[k + i][r] for r in gen_i):
                    for J in (cubes[k + j][r] for r in gen_j):
                        coeffs[(I, J, K, 1, 1)] = _phase_rule(sysw, I, J, K)
        S = assemble_shift(sysw, ShiftSpec(i, j, 1, coeffs))
        B = sysw.basis_matrix
        acc += B @ S @ B.conj().T * sysw.cell_measure
        scale += np.abs(B) @ np.abs(S) @ np.abs(B).T * sysw.cell_measure
    return acc / 2**N, scale / 2**N


@pytest.mark.parametrize("depth, i, j", [(6, 1, 0), (5, 2, 1), (5, 0, 2), (4, 1, 1)])
def test_averaged_shift_equals_phase_rule_reference(depth, i, j):
    params = DyadicParams(2, depth)
    got = averaged_shift_cell_matrix(params, i, j)
    want, scale = _reference_averaged_shift(params, i, j)
    # within the tolerance model: two products over the 2^depth basis slots
    # and the mean over the 2^depth grids, at each entry's sum of |terms|
    assert got.dtype == complex and got.shape == want.shape
    assert np.all(np.abs(got - want) <= model_bound(3 * 2**depth, scale))

import numpy as np
import pytest

from parahaar.dyadic import CubeId, DyadicParams, GridShift, build_system
from parahaar.paraproducts import Symbol, random_symbol
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
    with pytest.raises(ValueError):
        ShiftSpec(1, 1, 1, {(I, J, K, 1, 1): 0.51})
    ShiftSpec(1, 1, 1, {(I, J, K, 1, 1): 0.5})  # at the bound is fine


def test_random_shift_deterministic():
    sys = build_system(DyadicParams(2, 4))
    s1 = random_shift(sys, 1, 2, 99)
    s2 = random_shift(sys, 1, 2, 99)
    assert s1.coeffs.keys() == s2.coeffs.keys()
    for k in s1.coeffs:
        assert s1.coeffs[k] == s2.coeffs[k]


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
    from parahaar.dyadic import HaarIndex

    assert S[sys.haar_pos[HaarIndex(J, 1)], sys.haar_pos[HaarIndex(K, 1)]] == 0.3j


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


def test_phi_identity_and_blocks(rng):
    sys = build_system(DyadicParams(2, 4))
    spec = random_shift(sys, 1, 2, 5)
    b = random_symbol(sys, rng)
    phi, blocks = phi_blocks(sys, spec, b)
    total = sum(blocks.values())
    haar = np.arange(sys.dim_basis) > 0
    assert np.abs((phi - total)[:, haar]).max() < 1e-12 * max(1, np.abs(phi).max())
    keys = list(blocks)
    for a in range(len(keys)):
        for c in range(a + 1, len(keys)):
            assert np.abs(blocks[keys[a]].conj().T @ blocks[keys[c]]).max() < 1e-14
    for p in (2.0, 4.0):
        lhs = schatten_norm(phi[np.ix_(haar, haar)], p) ** p
        rhs = sum(schatten_norm(B.conj().T @ B, p / 2) ** (p / 2) for B in blocks.values())
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_phi_constant_symbol():
    sys = build_system(DyadicParams(2, 3))
    spec = random_shift(sys, 1, 1, 1)
    b = Symbol(sys, {}, coarse_mean=np.array([[2.0]]))
    phi, blocks = phi_blocks(sys, spec, b)
    assert np.abs(phi).max() < 1e-13
    assert all(np.abs(B).max() < 1e-13 for B in blocks.values())


def test_phi_blockvalued(rng):
    sys = build_system(DyadicParams(2, 3))
    spec = random_shift(sys, 1, 1, 2)
    b = random_symbol(sys, rng, blockdim=2)
    phi, blocks = phi_blocks(sys, spec, b)
    total = sum(blocks.values())
    haar = np.repeat(np.arange(sys.dim_basis) > 0, 2)
    assert np.abs((phi - total)[:, haar]).max() < 1e-12 * max(1, np.abs(phi).max())


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

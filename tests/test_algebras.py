import itertools
import re

import numpy as np
import pytest

from parahaar.algebras import (besov_car, besov_cars, besov_tensor,
                               besov_tensors, car_generators,
                               car_paraproduct, car_sign, car_subsets,
                               car_trace, car_transference_check,
                               car_transference_checks, car_word,
                               eta_lambda, pauli_matrices, tensor_basis,
                               tensor_indices,
                               tensor_paraproduct, tensor_transference_check,
                               tensor_transference_checks, tensor_word)
from parahaar.norms import block_lp


def test_pauli_construction():
    gens = car_generators(2)
    s1 = np.array([[0, 1], [1, 0]])
    s2 = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(gens[0], s1)
    assert np.allclose(gens[1], s2)
    anti = gens[0] @ gens[1] + gens[1] @ gens[0]
    assert np.abs(anti).max() < 1e-15
    assert np.allclose(gens[0] @ gens[0], np.eye(2))


def test_car_relations_exhaustive():
    for ng in (3, 6):
        gens = car_generators(ng)
        for a in range(ng):
            for b in range(ng):
                anti = gens[a] @ gens[b] + gens[b] @ gens[a]
                target = 2.0 * np.eye(anti.shape[0]) if a == b else 0.0
                assert np.abs(anti - target).max() < 1e-14


def test_word_basics():
    assert np.allclose(car_word((), 2), np.eye(2))
    assert car_trace(car_word((), 2)) == 1.0
    assert abs(car_trace(car_word((1, 2), 2))) < 1e-15
    s0 = np.array([[1, 0], [0, -1]])
    assert np.allclose(car_word((1, 2), 2), 1j * s0)
    with pytest.raises(ValueError):
        car_word((5,), 2)


def test_word_orthonormality():
    ng = 4
    subs = car_subsets(ng)
    for A in subs:
        for B in subs:
            val = car_trace(car_word(A, ng).conj().T @ car_word(B, ng))
            assert abs(val - (1.0 if A == B else 0.0)) < 1e-13


def test_sign_paths_agree(rng):
    ng = 6
    for _ in range(60):
        A = tuple(sorted(rng.choice(range(1, ng + 1), size=rng.integers(0, ng + 1),
                                    replace=False)))
        B = tuple(sorted(rng.choice(range(1, ng + 1), size=rng.integers(0, ng + 1),
                                    replace=False)))
        assert car_sign(A, B, ng, fast=True) == car_sign(A, B, ng, fast=False)


def test_car_paraproduct_structure(rng):
    subs = car_subsets(3)
    pos = {s: i for i, s in enumerate(subs)}
    P = car_paraproduct({(1,): 1.0}, 3)
    assert P[pos[(1,)], pos[()]] in (1.0, -1.0)
    levels = [max(s) if s else 0 for s in subs]
    nz = np.nonzero(P)
    for i, j in zip(*nz):
        assert levels[i] > levels[j]
    total = {A: complex(rng.standard_normal(), rng.standard_normal())
             for A in subs if A}
    P2 = car_paraproduct(total, 3)
    for i, j in zip(*np.nonzero(P2)):
        assert levels[i] > levels[j]
    with pytest.raises(ValueError):
        car_paraproduct({(4,): 1.0}, 3)


def test_besov_car_single_level():
    for k in (1, 2, 3):
        bhat = {(k,): 2.0}
        dk = 2.0 * car_word((k,), 3)
        for p in (1, 2, 3):
            assert besov_car(bhat, 3, p) == pytest.approx(
                2 ** (k / p) * block_lp(dk, p))


def test_car_transference(rng):
    for ng in (2, 3):
        bhat = {A: complex(rng.standard_normal(), rng.standard_normal())
                for A in car_subsets(ng) if A}
        for p in (1, 2, 3, 4):
            lhs, rhs, resid = car_transference_check(bhat, ng, p)
            assert resid < 1e-8
    single = {(1,): 1.5}
    lhs, rhs, resid = car_transference_check(single, 2, 2)
    assert resid < 1e-12 and lhs == pytest.approx(1.5)
    assert car_transference_check({}, 2, 2)[2] == 0.0


def test_transference_checks_share_one_svd_per_matrix(rng):
    ps = (1, 2, 3, 4)
    bhat = {A: complex(rng.standard_normal(), rng.standard_normal())
            for A in car_subsets(3) if A}
    assert car_transference_checks(bhat, 3, ps) == [car_transference_check(bhat, 3, p)
                                                    for p in ps]
    that = {a: complex(rng.standard_normal(), rng.standard_normal())
            for a in tensor_indices(2, 2) if a}
    assert tensor_transference_checks(that, 2, 2, ps) == [
        tensor_transference_check(that, 2, 2, p) for p in ps]


def test_tensor_basis_d2():
    assert np.allclose(tensor_basis(2, 2, 2), np.eye(2))
    assert np.allclose(tensor_basis(1, 2, 2), np.diag([-1, 1]))
    U11 = tensor_basis(1, 1, 2)
    assert np.allclose(U11, [[0, -1], [1, 0]])
    assert np.allclose(U11.conj().T, -U11)
    with pytest.raises(ValueError):
        tensor_basis(0, 1, 2)


def test_lemma_products_exhaustive():
    for d in (2, 3):
        om = np.exp(2j * np.pi / d)
        for i, j, k, l in itertools.product(range(1, d + 1), repeat=4):
            U = tensor_basis(i, j, d)
            V = tensor_basis(k, l, d)
            ibar, jbar = (-i - 1) % d + 1, (-j - 1) % d + 1
            assert np.abs(U.conj().T - om ** (i * j) * tensor_basis(ibar, jbar, d)).max() < 1e-13
            tgt = om ** (j * k) * tensor_basis((i + k - 1) % d + 1, (j + l - 1) % d + 1, d)
            assert np.abs(U @ V - tgt).max() < 1e-13


def test_eta_lambda_identity_case():
    alpha = ((1, 2), (2, 1))
    eta, lam = eta_lambda(alpha, alpha, 2)
    assert eta == ()
    assert abs(abs(lam) - 1) < 1e-14
    prod = tensor_word(alpha, 2, 2) @ tensor_word(alpha, 2, 2).conj().T
    assert np.abs(prod - lam * np.eye(4)).max() < 1e-13


def test_eta_lambda_kronecker_oracle(rng):
    idx = tensor_indices(2, 3)
    for _ in range(100):
        a = idx[rng.integers(0, len(idx))]
        b = idx[rng.integers(0, len(idx))]
        eta, lam = eta_lambda(a, b, 2)
        assert abs(abs(lam) - 1) < 1e-14
        L = 3
        prod = tensor_word(a, 2, L) @ tensor_word(b, 2, L).conj().T
        assert np.abs(prod - lam * tensor_word(eta, 2, L)).max() < 1e-12


def test_tensor_index_family():
    idx = tensor_indices(2, 2)
    assert len(idx) == 16  # complete basis of the level-2 word algebra
    assert () in idx
    assert all(a[-1] != (2, 2) for a in idx if a)


def test_tensor_paraproduct_and_transference(rng):
    for levels in (2, 3):
        bhat = {a: complex(rng.standard_normal(), rng.standard_normal())
                for a in tensor_indices(2, levels) if a}
        P = tensor_paraproduct(bhat, 2, levels)
        idx = tensor_indices(2, levels)
        for i, j in zip(*np.nonzero(P)):
            assert len(idx[i]) > len(idx[j])
        for p in (1, 2, 3, 4):
            lhs, rhs, resid = tensor_transference_check(bhat, 2, levels, p)
            assert resid < 1e-8
    single = {((1, 2),): 0.7}
    lhs, rhs, resid = tensor_transference_check(single, 2, 1, 2)
    assert resid < 1e-12
    lhs0, rhs0, resid0 = tensor_transference_check({}, 2, 1, 2)
    assert lhs0 == rhs0 == 0.0
    for word in (((1, 2), (9, 9)), ((1, 2), (2, 2)), ((1, 1), (1, 1), (1, 2))):
        with pytest.raises(ValueError, match=re.escape(str(word))):
            tensor_paraproduct({word: 1 + 2j}, 2, 2)


def test_besov_tensor_single_level():
    bhat = {((1, 1), (1, 2)): 3.0}
    for p in (1, 2):
        dk = 3.0 * tensor_word(((1, 1), (1, 2)), 2, 2)
        # single level k=2: weight d^{2k} = 2^4 inside the p-th root
        assert besov_tensor(bhat, 2, 2, p) == pytest.approx(
            2.0 ** (4.0 / p) * block_lp(dk, p))


PLURAL_PS = (0.5, 1, 2, 4, np.inf)


def _word_besov_loop(bhat, level, word, weight, p):
    """Per-p reference: each level summed, and its block decomposed, afresh."""
    total = 0.0
    for k in sorted({level(a) for a, c in bhat.items() if c}):
        dk = sum(c * word(a) for a, c in bhat.items() if level(a) == k and c)
        sv = np.linalg.svd(dk, compute_uv=False)
        if p == np.inf:
            total = max(total, float(sv[0]))
            continue
        total += weight(k) * float((np.sum(sv ** p) / dk.shape[0]) ** (1.0 / p)) ** p
    return total if p == np.inf else float(total ** (1.0 / p))


@pytest.mark.parametrize("ng", [2, 3, 4])
def test_besov_cars_equal_per_p_loop(rng, ng):
    full = {A: complex(*rng.standard_normal(2)) for A in car_subsets(ng) if A}
    sparse = {A: z for A, z in full.items() if max(A) != 2}  # level 2 left empty
    for bhat in (full, sparse, {}):
        want = [_word_besov_loop(bhat, max, lambda A: car_word(A, ng), lambda k: 2**k, p)
                for p in PLURAL_PS]
        assert besov_cars(bhat, ng, PLURAL_PS) == want


@pytest.mark.parametrize("d,levels", [(2, 2), (2, 3), (3, 2)])
def test_besov_tensors_equal_per_p_loop(rng, d, levels):
    full = {a: complex(*rng.standard_normal(2)) for a in tensor_indices(d, levels) if a}
    top = {a: z for a, z in full.items() if len(a) == levels}
    for bhat in (full, top, {}):
        want = [_word_besov_loop(bhat, len, lambda a: tensor_word(a, d, levels),
                                 lambda k: float(d) ** (2 * k), p) for p in PLURAL_PS]
        assert besov_tensors(bhat, d, levels, PLURAL_PS) == want


def _kron_chain(factors):
    M = np.eye(1, dtype=complex)
    for f in factors:
        M = np.kron(M, f)
    return M


@pytest.mark.parametrize("ng", [1, 2, 5, 6])
def test_car_generators_are_read_only_kron_products(ng):
    s0, s1, s2 = pauli_matrices()
    q = (ng + 1) // 2
    gens = car_generators(ng)
    assert car_generators(ng) is gens and len(gens) == ng
    for k, g in enumerate(gens, start=1):
        pos = (k + 1) // 2
        fresh = _kron_chain([s0] * (pos - 1) + [s1 if k % 2 else s2] + [np.eye(2)] * (q - pos))
        assert np.array_equal(g, fresh)
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 7.0


@pytest.mark.parametrize("d,levels", [(2, 1), (2, 3), (3, 2)])
def test_tensor_words_are_read_only_kron_products(d, levels):
    for a in tensor_indices(d, levels):
        padded = list(a) + [(d, d)] * (levels - len(a))
        fresh = _kron_chain([tensor_basis(i, j, d) for i, j in padded])
        got = tensor_word(a, d, levels)
        assert np.array_equal(got, fresh)
        assert not got.flags.writeable
        # lists, numpy integers and tuples name the same cached word
        assert tensor_word([list(map(np.int64, ij)) for ij in a], d, levels) is got
    with pytest.raises(TypeError):
        tensor_word(((1.0, 2),), 2, 1)

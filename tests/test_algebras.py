import itertools
import re

import numpy as np
import pytest

from parahaar.algebras import (_car_table, _tensor_table, besov_cars,
                               besov_tensors, car_generators,
                               car_paraproduct, car_sign, car_subsets,
                               car_trace, car_transference_checks, car_word,
                               eta_lambda, pauli_matrices, tensor_basis,
                               tensor_indices, tensor_paraproduct,
                               tensor_transference_checks, tensor_word)
from parahaar.checks import model_bound
from parahaar.spectral import schatten_norm, schatten_norms


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
        for p, got in zip((1, 2, 3), besov_cars(bhat, 3, (1, 2, 3))):
            assert got == pytest.approx(2 ** (k / p) * schatten_norm(dk, p, len(dk)))


def test_car_transference(rng):
    for ng in (2, 3):
        bhat = {A: complex(rng.standard_normal(), rng.standard_normal())
                for A in car_subsets(ng) if A}
        for lhs, rhs, resid in car_transference_checks(bhat, ng, (1, 2, 3, 4)):
            assert resid < 1e-8
    single = {(1,): 1.5}
    [(lhs, rhs, resid)] = car_transference_checks(single, 2, (2,))
    assert resid < 1e-12 and lhs == pytest.approx(1.5)
    assert car_transference_checks({}, 2, (2,))[0][2] == 0.0


def test_transference_checks_share_one_svd_per_matrix(rng):
    ps = (1, 2, 3, 4)
    bhat = {A: complex(rng.standard_normal(), rng.standard_normal())
            for A in car_subsets(3) if A}
    assert car_transference_checks(bhat, 3, ps) == [car_transference_checks(bhat, 3, (p,))[0]
                                                    for p in ps]
    that = {a: complex(rng.standard_normal(), rng.standard_normal())
            for a in tensor_indices(2, 2) if a}
    assert tensor_transference_checks(that, 2, 2, ps) == [
        tensor_transference_checks(that, 2, 2, (p,))[0] for p in ps]


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
        for lhs, rhs, resid in tensor_transference_checks(bhat, 2, levels, (1, 2, 3, 4)):
            assert resid < 1e-8
    single = {((1, 2),): 0.7}
    assert tensor_transference_checks(single, 2, 1, (2,))[0][2] < 1e-12
    [(lhs0, rhs0, resid0)] = tensor_transference_checks({}, 2, 1, (2,))
    assert lhs0 == rhs0 == 0.0
    for word in (((1, 2), (9, 9)), ((1, 2), (2, 2)), ((1, 1), (1, 1), (1, 2))):
        with pytest.raises(ValueError, match=re.escape(str(word))):
            tensor_paraproduct({word: 1 + 2j}, 2, 2)


def test_besov_tensor_single_level():
    bhat = {((1, 1), (1, 2)): 3.0}
    dk = 3.0 * tensor_word(((1, 1), (1, 2)), 2, 2)
    for p, got in zip((1, 2), besov_tensors(bhat, 2, 2, (1, 2))):
        # single level k=2: weight d^{2k} = 2^4 inside the p-th root
        assert got == pytest.approx(2.0 ** (4.0 / p) * schatten_norm(dk, p, len(dk)))


def test_besov_cars_of_a_rank_deficient_level():
    # level 2 holds c_2 + c_1 c_2, of singular values (2, 0): its L_p norm at
    # p = 1/2 is 1/2, and with the weight 2^2 the form is (4 (1/2)^(1/2))^2 = 8
    [got] = besov_cars({(2,): 1, (1, 2): 1}, 2, (0.5,))
    assert abs(got - 8.0) <= model_bound(2, 8.0) / 0.5


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
        got = besov_tensors(bhat, d, levels, PLURAL_PS)
        # within the tolerance model: a sum of one term per level, through the 1/p root
        for x, y, p in zip(got, want, PLURAL_PS, strict=True):
            assert abs(x - y) <= model_bound(levels, y) / min(p, 1.0), p


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
        # lists, numpy integers and tuples name the same word
        assert np.array_equal(tensor_word([list(map(np.int64, ij)) for ij in a], d, levels), got)
    with pytest.raises(ValueError, match=re.escape("i must be an integer in 1..2, got 1.0")):
        tensor_word(((1.0, 2),), 2, 1)


# -- the word table against explicit matrix products and the per-entry loops


def _reference_tensor_codes(d, levels):
    """(prod, phase_code) of the tensor table through signed int32 (n, n) keys."""
    words = tensor_indices(d, levels)
    n = len(words)
    digits = np.array([list(w) + [(d, d)] * (levels - len(w)) for w in words],
                      dtype=np.int32).reshape(n, levels, 2) % d
    key, eta_key, phase_code = (np.zeros(shape, dtype=np.int32) for shape in (n, (n, n), (n, n)))
    for lvl in range(levels):
        i, j = digits[:, lvl, 0], digits[:, lvl, 1]
        key += (i * d + j) * d ** (2 * lvl)
        dj = j[:, None] - j
        eta_key += ((i[:, None] - i) % d * d + dj % d) * d ** (2 * lvl)
        phase_code += (-i * dj) % d * d**lvl
    pos = np.empty(d ** (2 * levels), dtype=np.min_scalar_type(n - 1))
    pos[key] = np.arange(n)
    return pos[eta_key], phase_code.astype(np.min_scalar_type(d**levels - 1))


@pytest.mark.parametrize("d,levels", [(2, 1), (2, 3), (3, 2), (2, 5), (3, 3), (5, 2)])
def test_tensor_codes_equal_signed_reference(d, levels):
    table = _tensor_table(d, levels)
    prod, phase_code = _reference_tensor_codes(d, levels)
    for got, want in ((table.prod, prod), (table.phase_code, phase_code)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("ng", [1, 2, 3, 4, 5, 6])
def test_car_table_every_pair_matches_matrix_products(ng):
    table = _car_table(ng)
    assert table.words == car_subsets(ng)
    W = np.stack([car_word(A, ng) for A in table.words])
    products = np.einsum("aij,bkj->abik", W, W.conj())
    assert np.array_equal(products, table.phases[table.phase_code][:, :, None, None] * W[table.prod])
    for a, A in enumerate(table.words):
        for b, B in enumerate(table.words):
            assert np.array_equal(products[a, b], car_sign(A, B, ng) * car_word(set(A) ^ set(B), ng))


@pytest.mark.parametrize("d,levels", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_tensor_table_every_pair_matches_matrix_products(d, levels):
    table = _tensor_table(d, levels)
    assert table.words == tensor_indices(d, levels)
    W = np.stack([tensor_word(a, d, levels) for a in table.words])
    products = np.einsum("aij,bkj->abik", W, W.conj())
    want = table.phases[table.phase_code][:, :, None, None] * W[table.prod]
    assert np.abs(products - want).max() < 1e-12
    assert np.abs(np.abs(table.phases) - 1).max() < 1e-14


def _reference_sign(A, B):
    """s with c_A c_B^* = s c_{A xor B}: c_B^* reverses B, then each generator
    of B is commuted through the word to its slot, one at a time."""
    sign = -1 if (len(B) * (len(B) - 1) // 2) % 2 else 1
    word = list(A)
    for g in B:
        if sum(1 for h in word if h > g) % 2:
            sign = -sign
        if g in word:
            word.remove(g)
        else:
            word.append(g)
            word.sort()
    return sign


def _reference_car_paraproduct(bhat, n_gen):
    """The per-entry loop the word table replaced."""
    subs = car_subsets(n_gen)
    out = np.zeros((len(subs), len(subs)), dtype=complex)
    for ia, A in enumerate(subs):
        for ib, B in enumerate(subs):
            if max(A, default=0) <= max(B, default=0):
                continue
            coeff = bhat.get(tuple(sorted(set(A) ^ set(B))), 0.0)
            if coeff:
                out[ia, ib] = _reference_sign(A, B) * coeff
    return out


def _reference_eta_lambda(alpha, beta, d):
    """(eta, lam) with U_alpha U_beta^* = lam U_eta, level by level."""
    la, lb = len(alpha), len(beta)
    lam = 1.0 + 0j
    omega = np.exp(2j * np.pi / d)
    ent = []
    for lvl in range(max(la, lb)):
        it, jt = alpha[lvl] if lvl < la else (d, d)
        ib, jb = beta[lvl] if lvl < lb else (d, d)
        if lvl < lb:
            lam *= omega ** ((-ib * (jt - jb)) % d)
            ent.append(((it - ib - 1) % d + 1, (jt - jb - 1) % d + 1))
        else:
            ent.append((it, jt))
    while ent and ent[-1] == (d, d):
        ent.pop()
    return tuple(ent), lam


def _reference_tensor_paraproduct(bhat, d, levels):
    """The per-entry loop the word table replaced."""
    idx = tensor_indices(d, levels)
    out = np.zeros((len(idx), len(idx)), dtype=complex)
    for ia, a in enumerate(idx):
        for ib, b in enumerate(idx):
            if len(a) <= len(b):
                continue
            eta, lam = _reference_eta_lambda(a, b, d)
            coeff = bhat.get(eta, 0.0)
            if coeff:
                out[ia, ib] = np.conj(lam) * coeff
    return out


def _draws(rng, words):
    """A complex coefficient on every word, a real one on some, and none."""
    full = {w: complex(*rng.standard_normal(2)) for w in words if w}
    sparse = {w: float(rng.standard_normal()) for w in words if w and rng.random() < 0.3}
    return full, sparse, {}


@pytest.mark.parametrize("ng", [1, 2, 3, 4, 5, 6, 7, 8])
def test_car_paraproduct_equals_per_entry_loop(rng, ng):
    for bhat in _draws(rng, car_subsets(ng)):
        assert np.array_equal(car_paraproduct(bhat, ng), _reference_car_paraproduct(bhat, ng))


@pytest.mark.parametrize("d,levels", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
def test_tensor_paraproduct_equals_per_entry_loop(rng, d, levels):
    for bhat in _draws(rng, tensor_indices(d, levels)):
        got = tensor_paraproduct(bhat, d, levels)
        want = _reference_tensor_paraproduct(bhat, d, levels)
        assert got.shape == want.shape and np.array_equal(got == 0, want == 0)
        # within the tolerance model: a phase is a product over the levels,
        # then one product with the coefficient
        assert np.abs(got - want).max() <= model_bound(levels + 1, np.abs(want).max())


def test_eta_lambda_equals_level_loop():
    for a, b in itertools.product(tensor_indices(3, 2), repeat=2):
        assert eta_lambda(a, b, 3) == _reference_eta_lambda(a, b, 3)


# -- sizes the per-entry loops could not reach.  Each word e of level k is
# u_a u_b^* for 2^(k-1) CAR pairs, or d^(2(k-1)) tensor pairs, with level(a) >
# level(b), while its Besov weight is 2^k or d^(2k): S_2 = 2^(-1/2) B_2 and
# S_2 = B_2 / d exactly, under these weights.


def test_car_s2_over_b2_at_ten_generators(rng):
    ng = 10
    bhat = {A: complex(*rng.standard_normal(2)) for A in car_subsets(ng) if A}
    [s2] = schatten_norms(car_paraproduct(bhat, ng), (2,))
    [b2] = besov_cars(bhat, ng, (2,))
    assert s2 == pytest.approx(2 ** -0.5 * b2, rel=1e-12)


@pytest.mark.parametrize("d,levels", [(2, 5), (3, 3)])
def test_tensor_s2_over_b2_at_deep_levels(rng, d, levels):
    bhat = {a: complex(*rng.standard_normal(2)) for a in tensor_indices(d, levels) if a}
    [s2] = schatten_norms(tensor_paraproduct(bhat, d, levels), (2,))
    [b2] = besov_tensors(bhat, d, levels, (2,))
    assert s2 == pytest.approx(b2 / d, rel=1e-12)


# -- coefficient keys: one conversion for every form, a key that is no word raises

_CAR_FORMS = (lambda b: car_paraproduct(b, 2), lambda b: besov_cars(b, 2, (2.0,)),
              lambda b: car_transference_checks(b, 2, (2.0,)))
_TENSOR_FORMS = (lambda b: tensor_paraproduct(b, 2, 2), lambda b: besov_tensors(b, 2, 2, (2.0,)),
                 lambda b: tensor_transference_checks(b, 2, 2, (2.0,)))


@pytest.mark.parametrize("forms,key", [(_CAR_FORMS, (2, 1)), (_CAR_FORMS, (0,)),
                                       (_TENSOR_FORMS, ((2, 2),))],
                         ids=["car-unsorted", "car-generator-0", "tensor-identity-top"])
def test_every_form_rejects_a_key_that_is_not_a_word(forms, key):
    for form in forms:
        with pytest.raises(ValueError, match=re.escape(f"{key} is not a word")):
            form({key: 1.0})


def test_words_take_their_entries_by_the_integer_rule():
    # a bool or a float entry is refused, not read as the int it equals
    for call in (lambda: car_word((True,), 2), lambda: car_word((1, 1.5), 3),
                 lambda: car_sign((1,), (True,), 2)):
        with pytest.raises(ValueError, match=r"subset\[\d\] must be an integer"):
            call()
    with pytest.raises(ValueError, match=re.escape("i must be an integer in 1..2, got True")):
        tensor_word([(True, 1)], 2, 1)
    # a word above the top level is refused, not cut to it
    with pytest.raises(ValueError, match="2 levels, more than levels = 1"):
        tensor_word([(1, 1), (1, 2)], 2, 1)


def test_car_generators_cache_one_tuple_per_integer():
    assert car_generators(3) is car_generators(3) is car_generators(np.int64(3))
    with pytest.raises(ValueError, match="n_gen must be an integer"):
        car_generators(True)


def test_car_word_rejects_generators_outside_range():
    for subset in ((0,), (-1, 2), (3,)):
        with pytest.raises(ValueError, match="outside the generators"):
            car_word(subset, 2)

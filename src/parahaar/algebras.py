"""Anticommuting-generator and matrix-tensor algebra bases as explicit
matrices, their paraproduct matrix forms, Besov functionals, and the exact
unitary-conjugation norm-transference checks.

Word levels count generators; the empty word sits at level 0, so level-1
coefficients act on the empty-word column of the paraproduct matrix.

Both algebras share one word table, `_WordTable`: the words in public order,
their levels, and u_a u_b^* = phase u_prod for every pair by index arithmetic.
The paraproduct, Besov form and transference check are written once against
it; the explicit matrix products `car_word` and `tensor_word` are its oracles.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .dyadic import _integer_field

__all__ = [
    "pauli_matrices",
    "car_generators",
    "car_word",
    "car_trace",
    "car_sign",
    "car_subsets",
    "car_paraproduct",
    "besov_cars",
    "car_transference_checks",
    "tensor_basis",
    "eta_lambda",
    "tensor_indices",
    "tensor_word",
    "tensor_paraproduct",
    "besov_tensors",
    "tensor_transference_checks",
]


def pauli_matrices():
    s0 = np.array([[1, 0], [0, -1]], dtype=complex)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return s0, s1, s2


def _qubits(n_gen: int) -> int:
    return (n_gen + 1) // 2


def _integer_cache(*rules):
    """functools.cache of a function whose arguments are read by the integer
    rule first, one (name, lowest value) per position: a float or a bool is
    refused before it can reach the cache, or hit the entry of the int it equals."""
    def decorate(build):
        cached = functools.cache(build)

        @functools.wraps(build)
        def read(*args):
            return cached(*(_integer_field(name, v, lo) for (name, lo), v in zip(rules, args)))
        return read
    return decorate


@_integer_cache(("n_gen", 1))
def car_generators(n_gen: int):
    """Self-adjoint unitaries c_1..c_n with c_j c_k + c_k c_j = 2 delta_jk.

    A tuple of read-only arrays, built once per n_gen.
    """
    s0, s1, s2 = pauli_matrices()
    q = _qubits(n_gen)
    eye = np.eye(2, dtype=complex)
    gens = []
    for k in range(1, n_gen + 1):
        pos = (k + 1) // 2  # qubit slot carrying sigma_1 or sigma_2
        factors = [s0] * (pos - 1)
        factors.append(s1 if k % 2 == 1 else s2)
        factors.extend([eye] * (q - pos))
        M = factors[0]
        for f in factors[1:]:
            M = np.kron(M, f)
        M.setflags(write=False)
        gens.append(M)
    return tuple(gens)


def car_word(subset: Sequence[int], n_gen: int) -> np.ndarray:
    """c_A = product of generators in increasing order; c_empty = identity."""
    gens = car_generators(n_gen)  # n_gen read by the integer rule first
    subset = _subset(subset, n_gen)
    M = np.eye(2 ** _qubits(n_gen), dtype=complex)
    for k in subset:
        M = M @ gens[k - 1]
    return M


def _subset(subset, n_gen: int) -> list:
    """The generators of `subset`, each read by the integer rule, sorted."""
    subset = sorted({_integer_field(f"subset[{k}]", g) for k, g in enumerate(subset)})
    if subset and (subset[0] < 1 or subset[-1] > n_gen):
        raise ValueError(f"subset {subset} lies outside the generators 1..{n_gen}")
    return subset


def car_trace(x) -> complex:
    x = np.asarray(x)
    return complex(np.trace(x) / x.shape[0])


def car_sign(A, B, n_gen: int) -> int:
    """Sign s with c_A c_B^* = s c_{A xor B}, read from the word table."""
    table = _car_table(n_gen)
    a, b = (_position(table, tuple(_subset(X, n_gen))) for X in (A, B))
    return int(table.phases[table.phase_code[a, b]].real)


def car_subsets(n_gen: int):
    """All subsets of {1..n_gen}, ordered by (max, size, lex); empty first."""
    n_gen = _integer_field("n_gen", n_gen, 1)
    subs = [tuple(sorted(s)) for r in range(n_gen + 1)
            for s in itertools.combinations(range(1, n_gen + 1), r)]
    return sorted(subs, key=lambda s: (max(s) if s else 0, len(s), s))


def car_paraproduct(bhat: Dict[Tuple[int, ...], complex], n_gen: int) -> np.ndarray:
    """Matrix (A, B) -> sign * bhat[A xor B] when max(A) > max(B), else 0."""
    return _paraproduct(_car_table(n_gen), bhat)


def besov_cars(bhat, n_gen: int, ps) -> list[float]:
    """(sum_k 2^k ||d_k b||_p^p)^(1/p) per p, with the normalized-trace block
    norm; at p = inf, max_k ||d_k b||_inf."""
    return _besov(_car_table(n_gen), bhat, ps)


def car_transference_checks(bhat, n_gen: int, p_values):
    """(lhs, rhs, residual) per p: Schatten norm of the scalar matrix against
    the word-valued block matrix under the Tr (x) normalized-trace convention."""
    return _transference_checks(_car_table(n_gen), bhat, p_values)


# ---------------------------------------------------------------------------
# Tensor products of d x d matrix algebras.


def tensor_basis(i: int, j: int, d: int) -> np.ndarray:
    """U_(i,j) = sum_l omega^{i l} e_{l, sigma^j(l)} for the d-cycle
    sigma = (1 2 ... d); U_(d,d) = identity."""
    d = _integer_field("d", d, 1)
    i, j = _integer_field("i", i, 1, d), _integer_field("j", j, 1, d)
    omega = np.exp(2j * np.pi / d)
    U = np.zeros((d, d), dtype=complex)
    for l in range(1, d + 1):
        U[l - 1, (l + j - 1) % d] = omega ** ((i * l) % d)
    return U


def eta_lambda(alpha, beta, d: int):
    """(eta, lam) with U_alpha U_beta^* = lam U_eta; |lam| = 1.

    alpha, beta are words of `tensor_indices`: tuples of (i, j) pairs per
    level (level = position + 1), trailing identity pairs (d, d) trimmed away.
    """
    d = _integer_field("d", d, 1)
    alpha, beta = (tuple((_integer_field("i", i, 1, d), _integer_field("j", j, 1, d))
                         for i, j in w) for w in (alpha, beta))
    table = _tensor_table(d, max(len(alpha), len(beta), 1))
    a, b = _position(table, alpha), _position(table, beta)
    return table.words[table.prod[a, b]], table.phases[table.phase_code[a, b]]


def tensor_indices(d: int, levels: int):
    """All words with entries in [1,d]^2 whose top level is not (d, d),
    ordered by (length, lex); empty first."""
    d, levels = _integer_field("d", d, 1), _integer_field("levels", levels, 1)
    pairs = list(itertools.product(range(1, d + 1), repeat=2))
    return [()] + [w for top in range(1, levels + 1)
                   for w in itertools.product(pairs, repeat=top) if w[-1] != (d, d)]


def tensor_word(alpha, d: int, levels: int) -> np.ndarray:
    """U_alpha on `levels` tensor factors, identity above the word's top level.

    A read-only array, built on each call: a cache would keep every word of
    a table alive, d^(2 levels) matrices of side d^levels.
    """
    d, levels = _integer_field("d", d, 1), _integer_field("levels", levels, 1)
    alpha = list(alpha)  # each (i, j) read by `tensor_basis`
    if len(alpha) > levels:
        raise ValueError(f"the word {alpha} has {len(alpha)} levels, more than levels = {levels}")
    M = np.eye(1, dtype=complex)
    for lvl in range(levels):
        i, j = alpha[lvl] if lvl < len(alpha) else (d, d)
        # np.kron's products without its overhead
        M = (M[:, None, :, None] * tensor_basis(i, j, d)[:, None]).reshape(len(M) * d, -1)
    M.setflags(write=False)
    return M


def tensor_paraproduct(bhat, d: int, levels: int) -> np.ndarray:
    """Entries conj(lam_{a,b}) bhat(eta_{a,b}) when max(a) > max(b), else 0."""
    return _paraproduct(_tensor_table(d, levels), bhat)


def besov_tensors(bhat, d: int, levels: int, ps) -> list[float]:
    """(sum_k d^{2k} ||d_k b||_p^p)^(1/p) per p, normalized trace on the word
    algebra; at p = inf, max_k ||d_k b||_inf."""
    return _besov(_tensor_table(d, levels), bhat, ps)


def tensor_transference_checks(bhat, d: int, levels: int, p_values):
    """(lhs, rhs, residual) per p, as `car_transference_checks`."""
    return _transference_checks(_tensor_table(d, levels), bhat, p_values)


# ---------------------------------------------------------------------------
# The word table and the three operations written against it.


class _WordTable(NamedTuple):
    """Words u_a in public order with u_a u_b^* = phases[phase_code[a, b]] u_prod[a, b]."""
    name: str              # the call listing the words, for error messages
    words: list
    index: dict            # word -> position
    level: np.ndarray      # (N,) nondecreasing
    prod: np.ndarray       # (N, N) positions
    phase_code: np.ndarray  # (N, N) positions in `phases`
    phases: np.ndarray     # distinct phases, complex
    weight: float          # the level-k Besov term carries weight ** k
    word: Callable         # word -> its explicit matrix


def _table(name, words, level, prod, phase_code, phases, weight, word):
    """The table with its phase codes in the narrowest dtype that holds them."""
    return _WordTable(name, words, {w: i for i, w in enumerate(words)}, np.asarray(level), prod,
                      phase_code.astype(np.min_scalar_type(len(phases) - 1), copy=False),
                      np.asarray(phases, dtype=complex), weight, word)


@_integer_cache(("n_gen", 1))
def _car_table(n_gen: int) -> _WordTable:
    words = car_subsets(n_gen)
    masks = np.array([sum(1 << (g - 1) for g in w) for w in words],
                     dtype=np.min_scalar_type(2**n_gen - 1))  # bit g-1 is c_g
    pos = np.empty(2**n_gen, dtype=np.min_scalar_type(len(words) - 1))
    pos[masks] = np.arange(len(words))
    popcount = np.zeros(2**n_gen, dtype=np.uint8)
    for g in range(n_gen):
        popcount[1 << g:2 << g] = popcount[:1 << g] + 1
    # c_B^* reverses c_B, a sign (-1)^{|B|(|B|-1)/2}; then each b in B moves
    # left through every a > b of A, one sign each
    size = popcount[masks].astype(np.int64)
    parity = np.tile(((size * (size - 1) // 2) % 2).astype(np.uint8), (len(words), 1))
    for g in range(n_gen):
        parity ^= (popcount[masks >> (g + 1)] & 1)[:, None] & ((masks >> g) & 1).astype(np.uint8)
    return _table(f"car_subsets({n_gen})", words, [max(w, default=0) for w in words],
                  pos[masks[:, None] ^ masks], parity, [1, -1], 2.0,
                  functools.partial(car_word, n_gen=n_gen))


@_integer_cache(("d", 1), ("levels", 1))
def _tensor_table(d: int, levels: int) -> _WordTable:
    words = tensor_indices(d, levels)
    n = len(words)
    # per-level digits modulo d, the identity pair (d, d) above the top level,
    # in a dtype that holds d * d; the keys in the narrowest unsigned dtypes
    digits = np.array([list(w) + [(d, d)] * (levels - len(w)) for w in words],
                      dtype=np.min_scalar_type(d * d)).reshape(n, levels, 2) % d
    key_type = np.min_scalar_type(d ** (2 * levels) - 1)
    key, eta_key = np.zeros(n, dtype=key_type), np.zeros((n, n), dtype=key_type)
    phase_code = np.zeros((n, n), dtype=np.min_scalar_type(d**levels - 1))
    for lvl in range(levels):
        i, j = digits[:, lvl, 0], digits[:, lvl, 1]
        key += (i * d + j).astype(key_type) * d ** (2 * lvl)
        # U_(it,jt) U_(ib,jb)^* = omega^{-ib (jt - jb)} U_(it-ib, jt-jb); each
        # difference top - bottom taken unsigned, as (top + d - bottom) mod d
        dj = (j[:, None] + (d - j)) % d
        eta_key += ((i[:, None] + (d - i)) % d * d + dj).astype(key_type) * d ** (2 * lvl)
        phase_code += (i * (d - dj) % d).astype(phase_code.dtype) * d**lvl
    pos = np.empty(d ** (2 * levels), dtype=np.min_scalar_type(n - 1))
    pos[key] = np.arange(n)
    # phase code digit lvl is the exponent of omega at that level
    powers = np.exp(2j * np.pi / d) ** np.arange(d)
    phases = powers[np.arange(d**levels)[:, None] // d ** np.arange(levels) % d].prod(axis=1)
    return _table(f"tensor_indices({d}, {levels})", words, [len(w) for w in words],
                  pos[eta_key], phase_code, phases, float(d) ** 2,
                  functools.partial(tensor_word, d=d, levels=levels))


def _position(table: _WordTable, word) -> int:
    try:
        return table.index[word]
    except KeyError:
        raise ValueError(f"{word} is not a word of {table.name}") from None


def _coefficients(table: _WordTable, bhat) -> np.ndarray:
    """bhat as a vector over the table's words; a key that is not a word raises."""
    c = np.zeros(len(table.words), dtype=complex)
    for key, value in bhat.items():
        c[_position(table, key)] = value
    return c


def _paraproduct(table: _WordTable, bhat) -> np.ndarray:
    """Entries conj(phase_ab) bhat(prod_ab) where level(a) > level(b), else 0."""
    c = _coefficients(table, bhat)
    terms = np.multiply.outer(table.phases.conj(), c)  # every phase times every coefficient
    out = terms[table.phase_code, table.prod]
    out[table.level[:, None] <= table.level] = 0
    return out


def _besov(table: _WordTable, bhat, ps) -> list[float]:
    """Levels summed in word order; all levels share one batched SVD."""
    from .spectral import _require_positive, _weighted_sum, block_norms

    _require_positive(ps)
    c = _coefficients(table, bhat)
    blocks, levels = [], []
    for k in range(1, int(table.level[-1]) + 1):
        at = np.flatnonzero((table.level == k) & (c != 0))
        if at.size:
            blocks.append(sum(c[i] * table.word(table.words[i]) for i in at))
            levels.append(k)
    if not blocks:
        return [0.0] * len(ps)
    weights = table.weight ** np.array(levels)
    return [_weighted_sum(lps, p, weights) for p, lps in zip(ps, block_norms(np.stack(blocks), ps))]


def _transference_checks(table: _WordTable, bhat, p_values):
    """(lhs, rhs, residual) per p, from one SVD of each matrix."""
    from .spectral import schatten_norms

    scalar = _paraproduct(table, bhat)
    words = np.stack([table.word(w) for w in table.words])
    n, dim = len(words), words.shape[1]
    a, b = np.nonzero(scalar)
    # the word-valued entry is bhat(prod) u_prod: the scalar entry over the
    # phase it carries, so the phase cancels against the one in u_a u_b^*
    coef = scalar[a, b] / table.phases.conj()[table.phase_code[a, b]]
    big = np.zeros((n, dim, n, dim), dtype=complex)
    big[a, :, b, :] = coef[:, None, None] * words[table.prod[a, b]]
    lhs = schatten_norms(big.reshape(n * dim, n * dim), p_values, blockdim=dim)
    rhs = schatten_norms(scalar, p_values)
    return [(x, y, abs(x - y)) for x, y in zip(lhs, rhs)]

"""Anticommuting-generator and matrix-tensor algebra bases as explicit
matrices, their paraproduct matrix forms, Besov functionals, and the exact
unitary-conjugation norm-transference checks.

Word levels count generators; the empty word sits at level 0, so level-1
coefficients act on the empty-word column of the paraproduct matrix.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "pauli_matrices",
    "car_generators",
    "car_word",
    "car_trace",
    "car_sign",
    "car_subsets",
    "car_paraproduct",
    "besov_car",
    "besov_cars",
    "car_transference_check",
    "car_transference_checks",
    "tensor_basis",
    "eta_lambda",
    "tensor_indices",
    "tensor_word",
    "tensor_paraproduct",
    "besov_tensor",
    "besov_tensors",
    "tensor_transference_check",
    "tensor_transference_checks",
]


def pauli_matrices():
    s0 = np.array([[1, 0], [0, -1]], dtype=complex)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return s0, s1, s2


def _qubits(n_gen: int) -> int:
    return (n_gen + 1) // 2


@functools.cache
def car_generators(n_gen: int):
    """Self-adjoint unitaries c_1..c_n with c_j c_k + c_k c_j = 2 delta_jk.

    A tuple of read-only arrays, built once per n_gen.
    """
    if n_gen < 1:
        raise ValueError("need at least one generator")
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
    subset = sorted(set(subset))
    if subset and subset[-1] > n_gen:
        raise ValueError(f"subset {subset} exceeds generator range {n_gen}")
    gens = car_generators(n_gen)
    M = np.eye(2 ** _qubits(n_gen), dtype=complex)
    for k in subset:
        M = M @ gens[k - 1]
    return M


def car_trace(x) -> complex:
    x = np.asarray(x)
    return complex(np.trace(x) / x.shape[0])


def car_sign(A, B, n_gen: int, fast: bool = True) -> int:
    """Sign s with c_A c_B^* = s c_{A xor B}.

    The fast path counts anticommutations; it must agree with the explicit
    matrix product, which remains the ground truth at small sizes.
    """
    A = sorted(set(A))
    B = sorted(set(B))
    if fast:
        # c_B^* = (-1)^{|B|(|B|-1)/2} c_B (reversing the word), and moving
        # each generator of B leftwards through c_A costs one sign per
        # element of A strictly larger than it, plus the self-cancellation
        sign = 1
        nb = len(B)
        if (nb * (nb - 1) // 2) % 2:
            sign = -sign
        word = list(A)
        for g in B:
            # commute g through the part of `word` to the right of its slot
            crossings = sum(1 for h in word if h > g)
            if crossings % 2:
                sign = -sign
            if g in word:
                word.remove(g)
            else:
                word.append(g)
                word.sort()
        return sign
    M = car_word(A, n_gen) @ car_word(B, n_gen).conj().T
    target = car_word(sorted(set(A) ^ set(B)), n_gen)
    val = np.trace(target.conj().T @ M) / M.shape[0]
    s = int(round(val.real))
    if abs(val - s) > 1e-10 or s not in (-1, 1):
        raise RuntimeError("word product is not +-1 times a basis word")
    return s


def car_subsets(n_gen: int):
    """All subsets of {1..n_gen}, ordered by (max, size, lex); empty first."""
    subs = [tuple(sorted(s)) for r in range(n_gen + 1)
            for s in itertools.combinations(range(1, n_gen + 1), r)]
    return sorted(subs, key=lambda s: (max(s) if s else 0, len(s), s))


def _level(subset) -> int:
    return max(subset) if subset else 0


def car_paraproduct(bhat: Dict[Tuple[int, ...], complex], n_gen: int) -> np.ndarray:
    """Matrix (A, B) -> sign * bhat[A xor B] when max(A) > max(B), else 0."""
    subs = car_subsets(n_gen)
    pos = {s: i for i, s in enumerate(subs)}
    for key in bhat:
        if key and max(key) > n_gen:
            raise ValueError(f"coefficient {key} outside the configured level")
    out = np.zeros((len(subs), len(subs)), dtype=complex)
    for ia, A in enumerate(subs):
        for ib, B in enumerate(subs):
            if _level(A) <= _level(B):
                continue
            E = tuple(sorted(set(A) ^ set(B)))
            coeff = bhat.get(E, 0.0)
            if coeff:
                out[ia, ib] = car_sign(A, B, n_gen) * coeff
    return out


def besov_car(bhat, n_gen: int, p) -> float:
    """(sum_k 2^k ||d_k b||_p^p)^(1/p) with the normalized-trace block norm;
    at p = inf, max_k ||d_k b||_inf."""
    return besov_cars(bhat, n_gen, (p,))[0]


def besov_cars(bhat, n_gen: int, ps) -> list[float]:
    """[besov_car(bhat, n_gen, p) for p in ps]: each d_k b is summed once and
    all levels share one batched SVD."""
    from .norms import _require_positive

    _require_positive(ps)
    dim = 2 ** _qubits(n_gen)
    blocks, weights = [], []
    for k in range(1, n_gen + 1):
        dk = np.zeros((dim, dim), dtype=complex)
        got = False
        for A, coeff in bhat.items():
            if _level(A) == k and coeff:
                dk += coeff * car_word(A, n_gen)
                got = True
        if got:
            blocks.append(dk)
            weights.append(2**k)
    return _level_sums(blocks, weights, ps)


def _level_sums(blocks, weights, ps) -> list[float]:
    """(sum_k w_k ||d_k b||_p^p)^(1/p) per p over the word-level blocks d_k b."""
    from .norms import _block_lps, _weighted_sum

    if not blocks:
        return [0.0] * len(ps)
    return [_weighted_sum(lps.tolist(), weights, p)
            for p, lps in zip(ps, _block_lps(np.stack(blocks), ps))]


def car_transference_check(bhat, n_gen: int, p):
    """(lhs, rhs, residual): Schatten norm of the scalar matrix against the
    word-valued block matrix under the Tr (x) normalized-trace convention."""
    return car_transference_checks(bhat, n_gen, (p,))[0]


def car_transference_checks(bhat, n_gen: int, p_values):
    """car_transference_check at every p, from one SVD of each matrix."""
    subs = car_subsets(n_gen)
    dim = 2 ** _qubits(n_gen)
    scalar = car_paraproduct(bhat, n_gen)
    big = np.zeros((len(subs) * dim, len(subs) * dim), dtype=complex)
    words = {s: car_word(s, n_gen) for s in subs}
    for ia, A in enumerate(subs):
        for ib, B in enumerate(subs):
            if scalar[ia, ib]:
                E = tuple(sorted(set(A) ^ set(B)))
                # the word-valued entry is bhat(E) c_E: the sign inside the
                # scalar entry cancels against the one in c_A c_B^*
                big[ia * dim:(ia + 1) * dim, ib * dim:(ib + 1) * dim] = (
                    car_sign(A, B, n_gen) * scalar[ia, ib] * words[E]
                )
    return _transference_residuals(big, scalar, dim, p_values)


# ---------------------------------------------------------------------------
# Tensor products of d x d matrix algebras.


def _cycle_power(d: int, j: int, l: int) -> int:
    """sigma^j(l) for the d-cycle sigma = (1 2 ... d), arguments in 1..d."""
    return (l + j - 1) % d + 1


def tensor_basis(i: int, j: int, d: int) -> np.ndarray:
    """U_(i,j) = sum_l omega^{i l} e_{l, sigma^j(l)}; U_(d,d) = identity."""
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError("indices must lie in 1..d")
    omega = np.exp(2j * np.pi / d)
    U = np.zeros((d, d), dtype=complex)
    for l in range(1, d + 1):
        U[l - 1, _cycle_power(d, j, l) - 1] = omega ** ((i * l) % d)
    return U


def _mod_rep(x: int, d: int) -> int:
    """Representative of x modulo d inside [1, d]."""
    return (x - 1) % d + 1


def eta_lambda(alpha, beta, d: int):
    """(eta, lam) with U_alpha U_beta^* = lam U_eta; |lam| = 1.

    alpha, beta are tuples of (i, j) pairs per level (level = position + 1),
    trailing identity pairs (d, d) trimmed away.
    """
    la, lb = len(alpha), len(beta)
    top = max(la, lb)
    lam = 1.0 + 0j
    omega = np.exp(2j * np.pi / d)
    ent = []
    for lvl in range(top):
        it, jt = alpha[lvl] if lvl < la else (d, d)
        ib, jb = beta[lvl] if lvl < lb else (d, d)
        if lvl < lb:
            # factor from U_(it,jt) U_(ib,jb)^*
            lam *= omega ** ((-ib * (jt - jb)) % d)
            ent.append((_mod_rep(it - ib, d), _mod_rep(jt - jb, d)))
        else:
            ent.append((it, jt))
    while ent and ent[-1] == (d, d):
        ent.pop()
    return tuple(ent), lam


def tensor_indices(d: int, levels: int):
    """All words with entries in [1,d]^2 whose top level is not (d, d)."""
    out = [()]
    for top in range(1, levels + 1):
        lower = list(itertools.product(itertools.product(range(1, d + 1), repeat=2), repeat=top - 1))
        for prefix in lower:
            for last in itertools.product(range(1, d + 1), repeat=2):
                if last == (d, d):
                    continue
                out.append(prefix + (last,))
    return sorted(out, key=lambda a: (len(a), a))


def tensor_word(alpha, d: int, levels: int) -> np.ndarray:
    """U_alpha on `levels` tensor factors, identity above the word's top level.

    A read-only array, built once per (alpha, d, levels).
    """
    alpha = tuple((operator.index(i), operator.index(j)) for i, j in alpha)
    return _tensor_word(alpha, operator.index(d), operator.index(levels))


@functools.cache
def _tensor_word(alpha, d, levels):
    M = np.eye(1, dtype=complex)
    for lvl in range(levels):
        ij = alpha[lvl] if lvl < len(alpha) else (d, d)
        M = np.kron(M, tensor_basis(ij[0], ij[1], d))
    M.setflags(write=False)
    return M


def tensor_paraproduct(bhat, d: int, levels: int) -> np.ndarray:
    """Entries conj(lam_{a,b}) bhat(eta_{a,b}) when max(a) > max(b), else 0."""
    idx = tensor_indices(d, levels)
    known = set(idx)
    for key in bhat:
        if key not in known:
            raise ValueError(f"coefficient {key} is not a word of tensor_indices({d}, {levels})")
    out = np.zeros((len(idx), len(idx)), dtype=complex)
    for ia, a in enumerate(idx):
        for ib, b in enumerate(idx):
            if len(a) <= len(b):
                continue
            eta, lam = eta_lambda(a, b, d)
            coeff = bhat.get(eta, 0.0)
            if coeff:
                out[ia, ib] = np.conj(lam) * coeff
    return out


def besov_tensor(bhat, d: int, levels: int, p) -> float:
    """(sum_k d^{2k} ||d_k b||_p^p)^(1/p), normalized trace on the word algebra;
    at p = inf, max_k ||d_k b||_inf."""
    return besov_tensors(bhat, d, levels, (p,))[0]


def besov_tensors(bhat, d: int, levels: int, ps) -> list[float]:
    """[besov_tensor(bhat, d, levels, p) for p in ps]: each d_k b is summed
    once and all levels share one batched SVD."""
    from .norms import _require_positive

    _require_positive(ps)
    blocks, weights = [], []
    for k in range(1, levels + 1):
        dk = None
        for a, coeff in bhat.items():
            if len(a) == k and coeff:
                if dk is None:
                    dk = np.zeros((d**levels, d**levels), dtype=complex)
                dk += coeff * tensor_word(a, d, levels)
        if dk is not None:
            blocks.append(dk)
            weights.append(float(d) ** (2 * k))
    return _level_sums(blocks, weights, ps)


def _transference_residuals(big, scalar, dim, p_values):
    from .spectral import schatten_norms

    lhs = schatten_norms(big, p_values, blockdim=dim)
    rhs = schatten_norms(scalar, p_values)
    return [(a, b, abs(a - b)) for a, b in zip(lhs, rhs)]


def tensor_transference_check(bhat, d: int, levels: int, p):
    return tensor_transference_checks(bhat, d, levels, (p,))[0]


def tensor_transference_checks(bhat, d: int, levels: int, p_values):
    """tensor_transference_check at every p, from one SVD of each matrix."""
    idx = tensor_indices(d, levels)
    dim = d**levels
    scalar = tensor_paraproduct(bhat, d, levels)
    big = np.zeros((len(idx) * dim, len(idx) * dim), dtype=complex)
    for ia, a in enumerate(idx):
        for ib, b in enumerate(idx):
            if scalar[ia, ib]:
                eta, lam = eta_lambda(a, b, d)
                # block = bhat(eta) U_eta; the scalar entry is conj(lam) bhat(eta)
                big[ia * dim:(ia + 1) * dim, ib * dim:(ib + 1) * dim] = (
                    scalar[ia, ib] / np.conj(lam) * tensor_word(eta, d, levels)
                )
    return _transference_residuals(big, scalar, dim, p_values)

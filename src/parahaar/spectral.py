"""Schatten and trace-weighted norms of dense complex matrices."""

from __future__ import annotations

import numpy as np

__all__ = [
    "schatten_norm",
    "schatten_norms",
    "singular_values",
    "rank_one",
    "block_diagonal_project",
    "triangular_project",
]


def singular_values(T) -> np.ndarray:
    """All D singular values of the D x D matrix T, in descending order.

    Rows and columns of T that are exactly zero are deflated before the SVD.
    With permutations P, Q that move them last, T = P [C 0; 0 0] Q, where C
    keeps the nonzero rows and columns.  Permutations are unitary, so the
    singular values of T are those of C padded with zeros up to D: the
    deflation is exact, not a truncation.  LAPACK then runs on C alone (the
    paraproduct's coarse row and finest-scale columns are zero); a matrix
    with no zero row or column goes to LAPACK as it is.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    nonzero = T != 0
    rows = nonzero.any(axis=1)
    cols = nonzero.any(axis=0)
    n, r, c = T.shape[0], np.count_nonzero(rows), np.count_nonzero(cols)
    if r == n and c == n:
        return np.linalg.svd(T, compute_uv=False)
    sv = np.zeros(n)
    if r and c:
        core = T.compress(rows, axis=0).compress(cols, axis=1)
        sv[: min(r, c)] = np.linalg.svd(core, compute_uv=False)
    return sv


def schatten_norm(T, p, blockdim: int = 1) -> float:
    """(sum sigma_i^p)^(1/p); blockdim m > 1 divides the p-power sum by m.

    The division models the trace Tr (x) tr_m on B(l2) (x) M_m, i.e. the
    normalized trace on the m x m block factor.  p = inf returns the largest
    singular value (unaffected by the convention).

    Every call decomposes T afresh; nothing is cached between calls.  For
    norms of one matrix at several p, `schatten_norms` shares one SVD.
    """
    return _from_singular_values(singular_values(T), p, blockdim)


def schatten_norms(T, ps, blockdim: int = 1) -> list[float]:
    """[schatten_norm(T, p, blockdim) for p in ps], from one SVD of T."""
    sv = singular_values(T)
    return [_from_singular_values(sv, p, blockdim) for p in ps]


def _from_singular_values(sv, p, blockdim) -> float:
    if p == np.inf or p == "inf":
        return float(sv[0]) if sv.size else 0.0
    p = float(p)
    if p <= 0:
        raise ValueError("p must be positive or inf")
    if sv.size and sv[0] > 0:
        # drop numerical-rank noise, which p < 1 would otherwise amplify
        sv = sv[sv > sv[0] * sv.size * np.finfo(float).eps]
    return float((np.sum(sv**p) / blockdim) ** (1.0 / p))


def rank_one(u, v) -> np.ndarray:
    """Matrix of w -> u <v, w> (first argument of <,> conjugated)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be vectors of equal length")
    return np.outer(u, v.conj())


def block_diagonal_project(T, blocks) -> np.ndarray:
    """Zero all entries outside the given basis blocks.

    `blocks` is an iterable of index collections partitioning 0..dim-1; the
    projection is a trace-preserving conditional expectation, hence Schatten
    contractive for p >= 1.
    """
    T = np.asarray(T, dtype=complex)
    n = T.shape[0]
    seen = np.zeros(n, dtype=bool)
    out = np.zeros_like(T)
    for block in blocks:
        idx = np.asarray(list(block), dtype=int)
        if seen[idx].any():
            raise ValueError("blocks overlap")
        seen[idx] = True
        out[np.ix_(idx, idx)] = T[np.ix_(idx, idx)]
    return out


def triangular_project(T, rank) -> np.ndarray:
    """Keep entries (i, j) with rank[i] > rank[j] strictly; zero the rest."""
    T = np.asarray(T, dtype=complex)
    rank = np.asarray(rank)
    if rank.shape[0] != T.shape[0]:
        raise ValueError("rank vector must match the matrix dimension")
    keep = rank[:, None] > rank[None, :]
    return np.where(keep, T, 0.0)

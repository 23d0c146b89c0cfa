"""Schatten and trace-weighted norms of dense complex matrices."""

from __future__ import annotations

import numpy as np

__all__ = [
    "schatten_norm",
    "schatten_norms",
    "singular_values",
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
    with no zero row or column goes on as it is.

    Real up to row phases.  When C has at least 32 rows and 32 columns, let
    u_i be the phase of the first nonzero entry of row i of C.  If
    |Im(conj(u_i) C_ij)| <= 4 eps |C_ij| for every entry (relative to the
    entry, so exact zeros must stay zero), LAPACK runs on the real matrix
    A_ij = Re(conj(u_i) C_ij), at about half the price of the complex SVD;
    otherwise, and for a smaller C, it runs on C unchanged, bit for bit as
    without this rule.  A d = 2 paraproduct with a scalar symbol (dim 1 or
    2) always passes, since its Haar functions are real signs: row (I, t) is
    b_I^t times real cube averages.  diag(u) is unitary, so C and A + iE
    share their singular values, where E is the discarded imaginary part.
    By Weyl's inequality each sigma moves by at most
    ||E||_2 <= ||E||_F <= 4 eps ||C||_F <= 4 eps sqrt(D) sigma_max, plus
    the rounding of forming A (a few eps per entry): the order of LAPACK's
    own backward error.  That covers the checks that read these values at
    fixed tolerances: S_2 against the Frobenius norm at 1e-12 relative, and
    the calibrated ratios against their frozen bands at 1e-6 relative.

    Memory.  Beyond T, the call holds a D x D boolean mask while it finds the
    nonzero rows and columns, then frees it; C is gathered in one step
    (nothing full-width is copied), and the real path adds two float
    arrays of C's shape.  When the real path is taken, the gathered complex
    C is freed before LAPACK runs, which copies its input and adds its own
    workspace.  On a d = 2 paraproduct, C is (D - 1) x D/2, half of T.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    nonzero = T != 0
    rows = nonzero.any(axis=1).nonzero()[0]
    cols = nonzero.any(axis=0).nonzero()[0]
    del nonzero
    n, r, c = T.shape[0], rows.size, cols.size
    sv = np.zeros(n)
    if r and c:
        core = T if r == n and c == n else T[rows[:, None], cols]  # np.ix_ without its overhead
        if min(r, c) >= _REAL_PATH_MIN:
            real = _real_up_to_row_phases(core)
            if real is not None:
                core = real  # frees a gathered complex core before LAPACK runs
        sv[: min(r, c)] = np.linalg.svd(core, compute_uv=False)
    return sv


# Below this, the test costs about what the real SVD saves: on d = 2
# paraproduct cores (2^k - 1) x 2^(k-1), test plus real SVD against the
# complex SVD is 35 vs 19 us at k = 4, even at k = 5 and 123 vs 143 us at
# k = 6 (one thread, 2-core x86_64, OpenBLAS 0.3.31).
_REAL_PATH_MIN = 32


def _real_up_to_row_phases(C):
    """Re(conj(u_i) C_ij) if every |Im(conj(u_i) C_ij)| <= 4 eps |C_ij|, else None.

    u_i is the phase of the first nonzero entry of row i; every row of C
    must have one.  Works in two float temporaries and leaves C as it is.
    """
    lead = C[np.arange(C.shape[0]), (C != 0).argmax(axis=1)]
    u = lead / np.abs(lead)
    ur, ui = u.real[:, None], u.imag[:, None]
    resid = ur * C.imag
    buf = ui * C.real
    resid -= buf
    np.abs(resid, out=resid)
    np.abs(C, out=buf)
    buf *= 4 * np.finfo(float).eps
    if not (resid <= buf).all():  # NaN fails too
        return None
    np.multiply(ur, C.real, out=resid)
    np.multiply(ui, C.imag, out=buf)
    resid += buf
    return resid


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

"""Every singular value of the package and every p-norm of them: Schatten
norms of dense matrices, normalized-trace norms of blocks, and p-sums of
terms.  Each p-norm of singular values drops rank noise by `_power_sums`."""

from __future__ import annotations

import math

import numpy as np

from .dyadic import _integer_field, _is_integer

__all__ = [
    "schatten_norm",
    "schatten_norms",
    "singular_values",
    "block_singular_values",
    "block_norms",
    "block_diagonal_project",
    "triangular_project",
]


def singular_values(T) -> np.ndarray:
    """All singular values of T, in descending order: D of a D x D matrix,
    min(r, c) of an r x c core.

    A T that is not square is a core its caller has already reduced, as
    `paraproducts.paraproduct_core` is: LAPACK runs on it as it is, in its
    dtype (real for a real core).  A square T is an operator and takes the
    rules below.  Either way a non-finite entry raises ValueError, seen on
    the output (LAPACK returns a non-finite value or fails to converge), so
    no pass over T is added.

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
    own backward error.  The calibrated samplers never reach this rule:
    they take S_2 and S_4 from the cube tree and every other S_p from
    `paraproduct_core`, a rectangular core.  Its readers
    are the dense oracle of `checks.check_paraproduct_core`, the only caller
    in `verify --suite all` whose core passes the test, and the benchmark's
    d = 2 deep-window rungs.

    Memory.  Beyond T, the call holds a D x D boolean mask while it finds the
    nonzero rows and columns, then frees it.  When the nonzero rows form one
    contiguous run and so do the nonzero columns, as on every paraproduct
    (rows 1..D-1, the columns before the finest scale), C is a slice of T: a
    view, with nothing copied.  Otherwise C is gathered in one step (nothing
    full-width is copied).  The real path writes one float array of C's shape,
    and its test's temporaries are one block of rows in size.  LAPACK copies
    its input and adds its own workspace.  On a d = 2 paraproduct, C is
    (D - 1) x D/2, half of T, and the real path holds a quarter of T's bytes.
    """
    T = np.asarray(T)
    if T.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {T.shape}")
    if T.shape[0] != T.shape[1]:
        return _lapack(T)
    T = T.astype(complex, copy=False)
    nonzero = T != 0
    rows = nonzero.any(axis=1).nonzero()[0]
    cols = nonzero.any(axis=0).nonzero()[0]
    del nonzero
    n, r, c = T.shape[0], rows.size, cols.size
    sv = np.zeros(n)
    if r and c:
        if rows[-1] - rows[0] == r - 1 and cols[-1] - cols[0] == c - 1:
            core = T[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]  # a view
        else:
            core = T[rows[:, None], cols]  # np.ix_ without its overhead
        if min(r, c) >= _REAL_PATH_MIN:
            real = _real_up_to_row_phases(core)
            if real is not None:
                core = real  # frees a gathered complex core before LAPACK runs
        sv[: min(r, c)] = _lapack(core)
    return sv


def _lapack(a):
    """LAPACK's singular values of a matrix or a stack of them, by `_finite`;
    an input with a non-finite entry makes LAPACK fail or return one."""
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        sv = np.array(np.nan)
    return _finite(sv)


def _finite(sv):
    """sv, unless a value is not finite: then ValueError, as for the input it came from."""
    if not math.isfinite(sv.max(initial=0.0)):  # a NaN anywhere makes the max NaN
        raise ValueError("singular values need a matrix with finite entries")
    return sv


# Below this, the test costs about what the real SVD saves: on d = 2
# paraproduct cores (2^k - 1) x 2^(k-1), test plus real SVD against the
# complex SVD is 35 vs 19 us at k = 4, even at k = 5 and 123 vs 143 us at
# k = 6 (one thread, 2-core x86_64, OpenBLAS 0.3.31).
_REAL_PATH_MIN = 32


@np.errstate(invalid="ignore")
def _real_up_to_row_phases(C):
    """Re(conj(u_i) C_ij) if every |Im(conj(u_i) C_ij)| <= 4 eps |C_ij|, else None.

    u_i is the phase of the first nonzero entry of row i; every row of C
    must have one.  Runs over blocks of _ROW_BLOCK rows and writes into one
    float array of C's shape, so its temporaries are one block in size; each
    entry is computed as a one-shot pass over C would, bit for bit.  Leaves C
    as it is.  A non-finite entry makes a NaN (inf / inf, 0 * inf), quietly:
    the NaN fails the test, and LAPACK then refuses C.
    """
    out = np.empty(C.shape)
    tol = 4 * np.finfo(float).eps
    for lo in range(0, C.shape[0], _ROW_BLOCK):
        blk, res = C[lo:lo + _ROW_BLOCK], out[lo:lo + _ROW_BLOCK]
        lead = blk[np.arange(blk.shape[0]), (blk != 0).argmax(axis=1)]
        u = lead / np.abs(lead)
        ur, ui = u.real[:, None], u.imag[:, None]
        np.multiply(ur, blk.imag, out=res)
        buf = ui * blk.real
        res -= buf
        np.abs(res, out=res)
        np.abs(blk, out=buf)
        buf *= tol
        if not (res <= buf).all():  # NaN fails too
            return None
        np.multiply(ur, blk.real, out=res)
        np.multiply(ui, blk.imag, out=buf)
        res += buf
    return out


# 128 rows of a depth-11 paraproduct core take 1 MB per float temporary
_ROW_BLOCK = 128


def schatten_norm(T, p, blockdim: int = 1) -> float:
    """(sum sigma_i^p)^(1/p); blockdim m > 1 divides the p-power sum by m.

    The division models the trace Tr (x) tr_m on B(l2) (x) M_m, i.e. the
    normalized trace on the m x m block factor.  p = inf returns the largest
    singular value (unaffected by the convention).

    Every call decomposes T afresh; nothing is cached between calls.  For
    norms of one matrix at several p, `schatten_norms` shares one SVD.
    """
    _require_positive((p,))
    blockdim = _integer_field("blockdim", blockdim, 1)
    _require_square(T)
    return float(_lp(singular_values(T), p, blockdim))


def schatten_norms(T, ps, blockdim: int = 1) -> list[float]:
    """[schatten_norm(T, p, blockdim) for p in ps], from one SVD of T."""
    _require_positive(ps)
    blockdim = _integer_field("blockdim", blockdim, 1)
    _require_square(T)
    sv = singular_values(T)
    return [float(_lp(sv, p, blockdim)) for p in ps]


def _padded_schatten_norms(core, n, ps, blockdim):
    """schatten_norms of an n x n matrix whose singular values are those of
    `core` padded with zeros up to n, as `singular_values` pads a deflated
    core: `_power_sums` reads the same n values, so drops the same noise."""
    _require_positive(ps)
    blockdim = _integer_field("blockdim", blockdim, 1)
    sv = np.zeros(n)
    sv[: min(np.shape(core))] = singular_values(core)
    return [float(_lp(sv, p, blockdim)) for p in ps]


def block_singular_values(blocks) -> np.ndarray:
    """Singular values of each matrix of a (..., r, c) stack, largest first;
    a 1 x 1 block's is its modulus, taken without LAPACK.  ValueError if a
    block has a non-finite entry, seen on the output as in `singular_values`."""
    if blocks.shape[-2:] == (1, 1):
        return _finite(np.abs(blocks[..., 0]))
    return _lapack(blocks)


def block_norms(blocks, ps) -> list[np.ndarray]:
    """[L_p norms under the normalized trace of the blocks of a (..., m, m) stack, per p]."""
    _require_positive(ps)
    if blocks.ndim < 2 or blocks.shape[-1] != blocks.shape[-2]:
        raise ValueError(f"expected a stack of square blocks, got shape {blocks.shape}")
    sv = block_singular_values(blocks)
    return [_lp(sv, p, blocks.shape[-1]) for p in ps]


def _lp(sv, p, m):
    """(sum sigma^p / m)^(1/p) over the last axis, by `_power_sums`; the largest at p = inf."""
    if p == np.inf:
        return sv.max(axis=-1, initial=0.0)
    return _power_sums(sv, p, m) ** (1.0 / float(p))


def _power_sums(sv, p, m):
    """sum sigma^p / m over the last axis of descending singular values, less
    the rank noise sigma <= sigma_max n eps of n values, which p < 1 would
    amplify.  The kept values are a prefix, which a vector sums alone."""
    n = sv.shape[-1]
    if n > 1:  # one value is never noise
        keep = ~(sv <= sv[..., :1] * n * np.finfo(float).eps)  # a NaN drops nothing
        if sv.ndim > 1:
            return np.sum(np.where(keep, sv ** p, 0.0), axis=-1) / m
        sv = sv[keep]
    return np.sum(sv ** p, axis=-1) / m


def _weighted_sum(terms, p, weights=1.0) -> float:
    """(sum_i w_i t_i^p)^{1/p} of nonnegative terms, one numpy reduction; its
    p -> inf limit max_i t_i at p = inf; 0.0 for no terms."""
    terms = np.asarray(terms, dtype=float)
    if p == np.inf:
        return float(terms.max(initial=0.0))
    return float(np.sum(weights * terms ** p) ** (1.0 / float(p)))


def _require_number(name, value, rule, ok):
    """ValueError naming `value` unless it is an int or float, numpy's too
    (not a bool or str), that `ok` accepts; NaN fails every comparison."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not ok(value)):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _require_positive(ps):
    """ValueError unless each p of ps is an int or float > 0, or inf (not a bool, str or NaN)."""
    for p in ps:
        _require_number("p", p, "positive: an int or float > 0, or inf", lambda p: p > 0)


def _require_square(T):
    """ValueError unless T is a square matrix: a Schatten norm is an operator's."""
    shape = np.shape(T)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")


def block_diagonal_project(T, blocks) -> np.ndarray:
    """Zero all entries outside the given basis blocks.

    `blocks` is an iterable of index collections partitioning 0..dim-1; the
    projection is a trace-preserving conditional expectation, hence Schatten
    contractive for p >= 1.  ValueError naming the index for a bool, a
    non-integer or an integer outside 0..dim-1, for one that two blocks (or
    one block twice) hold, and for one that no block holds.
    """
    _require_square(T)
    T = np.asarray(T, dtype=complex)
    n = T.shape[0]
    seen = np.zeros(n, dtype=bool)
    out = np.zeros_like(T)
    for block in blocks:
        idx = list(block)
        for i in idx:
            if not (_is_integer(i) and 0 <= i < n):
                raise ValueError(f"block index {i!r} is not an integer in 0..{n - 1}")
            if seen[i]:
                raise ValueError(f"blocks overlap at index {i}")
            seen[i] = True
        idx = np.array(idx, dtype=int)
        out[np.ix_(idx, idx)] = T[np.ix_(idx, idx)]
    if not seen.all():
        raise ValueError(f"no block holds index {int(np.argmin(seen))}")
    return out


def triangular_project(T, rank) -> np.ndarray:
    """Keep entries (i, j) with rank[i] > rank[j] strictly; zero the rest."""
    _require_square(T)
    T = np.asarray(T, dtype=complex)
    rank = np.asarray(rank)
    if rank.shape[0] != T.shape[0]:
        raise ValueError("rank vector must match the matrix dimension")
    keep = rank[:, None] > rank[None, :]
    return np.where(keep, T, 0.0)

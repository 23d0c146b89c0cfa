"""Martingale paraproducts and companion operators on a truncated system.

All operators are dense matrices on the basis (coarse indicator first, then
Haar indices by scale/position/color), block-valued symbols entering as
Kronecker m x m factors; a function with coefficient blocks (D, m, m) is
acted on as the (D*m, m) matrix of stacked block rows.

The truncation window 1..N replaces the bi-infinite scale sums, and the
pointwise-multiplication identity picks up the coarse boundary term
K_b f = (E_0 b)(E_0 f).  `decompose` returns the five operators of
M_b = pi_b + Lambda_b + R_b + K_b and nothing else: the OperatorBundle
fields `pi` (paraproduct), `lam` (triangle_op), `r` (r_op), `coarse`
(coarse_op) and `mult` (mult_op).

Four assemblies are independent oracles and stay dense on purpose; each is
built where a check compares against it:
- mult_op, the full multiplication operator from the synthesized function:
  the bundle's `mult`, against which checks.check_decompose (and the
  benchmark) judge the other four fields;
- adjoint_paraproduct, pi_b^* from the dense `cube_average_matrix` (built
  from `basis_matrix` gathers), called by checks.check_adjoint (against the
  conjugate transpose of paraproduct, which scatters the flat tree table
  `cube_averages`) and checks.check_triangle_split;
- triangle_tilde, LambdaTilde_b from its same-cube entries, called by
  checks.check_triangle_split (Lambda_b = pi_{b*}^* + LambdaTilde_b);
- apply_paraproduct, the matrix-free action from cell means, called by the
  tests against apply_op(paraproduct), which goes through the tree walks.
No operator is built from one of the identities it is checked by.  The
others are tree assemblies: paraproduct, its pieces, triangle_op and
commutator_pieces scatter `cube_averages`, and r_op reads `cube_means`.
paraproduct_core, a matrix with pi_b's nonzero singular values, reads the
`descendants` tables alone; the dense paraproduct is its oracle
(checks.check_paraproduct_core).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Optional

import numpy as np

from .dyadic import (FiniteDyadicSystem, HaarIndex, StepFunction, _integer_field, _require_cells,
                     _table_product)

__all__ = [
    "Symbol",
    "OperatorBundle",
    "random_symbol",
    "paraproduct",
    "paraproduct_core",
    "apply_paraproduct",
    "adjoint_paraproduct",
    "triangle_op",
    "triangle_tilde",
    "r_op",
    "mult_op",
    "coarse_op",
    "decompose",
    "band",
    "splitting",
    "commutator_pieces",
    "rank_piece",
    "apply_op",
]


class Symbol:
    """Haar multiplier b, stored as its coefficient array.

    `blocks` is a read-only (dim_basis, m, m) array in basis order, the
    layout `sys.coeffs` returns: row 0 is the coarse mean and row
    `sys.position(h)` the block of the wavelet h.  The constructor takes a
    {HaarIndex: block} table (absent indices are zero); `from_blocks` takes
    the array.
    """

    def __init__(self, sys: FiniteDyadicSystem, coeffs: Dict[HaarIndex, np.ndarray],
                 coarse_mean=None, blockdim: Optional[int] = None):
        if blockdim is None:
            first = next(iter(coeffs.values()), coarse_mean)
            blockdim = 1 if first is None else np.atleast_2d(first).shape[0]
        blocks = np.zeros((sys.dim_basis, blockdim, blockdim), dtype=complex)
        for h, block in coeffs.items():
            blocks[sys.position(h)] = _square_block(block, blockdim)
        if coarse_mean is not None:
            blocks[0] = _square_block(coarse_mean, blockdim)
        self._adopt(sys, blocks)

    def _adopt(self, sys, blocks):
        blocks.flags.writeable = False
        self.sys = sys
        self.blocks = blocks
        self.blockdim = blocks.shape[1]
        self.coarse_mean = blocks[0]

    @classmethod
    def from_blocks(cls, sys: FiniteDyadicSystem, blocks) -> "Symbol":
        """Symbol with the given (dim_basis, m, m) coefficient array (copied)."""
        blocks = np.array(blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape != (sys.dim_basis, blocks.shape[2], blocks.shape[2]):
            raise ValueError(f"blocks must have shape ({sys.dim_basis}, m, m), got {blocks.shape}")
        b = cls.__new__(cls)
        b._adopt(sys, blocks)
        return b

    @classmethod
    def from_function(cls, sys: FiniteDyadicSystem, f: StepFunction) -> "Symbol":
        return cls.from_blocks(sys, sys.coeffs(f))

    @property
    def coeffs(self):
        """Read-only {HaarIndex: block} view of the nonzero Haar blocks, in basis order."""
        return MappingProxyType({h: blk for h, blk in zip(self.sys.haar_indices, self.blocks[1:])
                                 if np.any(blk)})

    def function(self) -> StepFunction:
        return self.sys.synthesize(self.blocks)

    def star(self) -> "Symbol":
        """Symbol of the pointwise adjoint function b*."""
        f = self.function()
        return Symbol.from_function(self.sys, StepFunction(np.conj(np.swapaxes(f.values, 1, 2))))


def _square_block(block, m) -> np.ndarray:
    block = np.atleast_2d(np.asarray(block, dtype=complex))
    if block.shape != (m, m):
        raise ValueError(f"every block, the coarse mean included, must be {m} x {m}; "
                         f"got shape {block.shape}")
    return block


@dataclass
class OperatorBundle:
    """The pieces of M_b = pi + lam + r + coarse, and the oracle `mult` = M_b."""

    pi: np.ndarray
    lam: np.ndarray
    r: np.ndarray
    mult: np.ndarray
    coarse: np.ndarray


def random_symbol(sys, rng, blockdim=1, scales=None, with_mean=True) -> Symbol:
    """Standard-normal complex coefficients, optionally restricted to scales.

    One draw for all blocks, the kept Haar rows in basis order: the generator
    stream is sequential, so each row gets the same real and imaginary parts
    as a draw per index would give.
    """
    blockdim = _integer_field("blockdim", blockdim, 1)
    N = sys.params.depth
    kept = range(N) if scales is None else [
        _integer_field(f"scales[{t}]", k, 0, N - 1) for t, k in enumerate(scales)]
    rows = np.flatnonzero(np.isin(sys.scale_of_row(), kept))
    z = rng.standard_normal((len(rows), 2, blockdim, blockdim))
    blocks = np.zeros((sys.dim_basis, blockdim, blockdim), dtype=complex)
    blocks[rows] = z[:, 0] + 1j * z[:, 1]
    if with_mean:
        shape = (blockdim, blockdim)
        blocks[0] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Symbol.from_blocks(sys, blocks)


def apply_op(op: np.ndarray, sys, f: StepFunction) -> StepFunction:
    m = f.blockdim
    coeffs = sys.coeffs(f).reshape(sys.dim_basis * m, m)
    out = (op @ coeffs).reshape(sys.dim_basis, m, m)
    return sys.synthesize(out)


def apply_paraproduct(sys, b: Symbol, f: StepFunction) -> StepFunction:
    """Matrix-free action: sum over indices of h_I^i b_I^i (mean of f on I).

    One pass per scale, O(n m^2), with h_I^i on each child of I read from
    `sys.child_values`: an independent oracle of apply_op(paraproduct(sys, b),
    sys, f), which goes through the flat cube-average table and the tree
    walks `coeffs` and `synthesize`.
    """
    m = b.blockdim
    if f.blockdim != m:
        raise ValueError("block dimensions of symbol and input differ")
    _require_cells(sys, f)
    out = np.zeros_like(f.values)
    for k in range(sys.params.depth):
        means = f.values[sys.cells_by_scale[k]].mean(axis=1)  # (cube, m, m)
        terms = b.blocks[sys.haar_slots(k)] @ means[:, None]  # (cube, colour, m, m)
        kids = sys.cells_by_scale[k + 1][sys.descendants(k, 1)]  # (cube, child, cell)
        out[kids] += np.einsum("qt,itab->iqab", sys.child_values(k), terms)[:, :, None]
    return StepFunction(out)


def paraproduct(sys, b: Symbol) -> np.ndarray:
    """Matrix of f -> sum h_I^i b_I^i <1_I/|I|, f> in the coarse+Haar basis.

    Block row (I, i) is b_I^i times the cube averages of the basis on I; the
    coarse output row stays zero.  One scatter of the flat table
    `sys.cube_averages` into the (D m)^2 output, which is the only D^2 array
    built.
    """
    return _average_scatter(sys, b, slice(None))


def paraproduct_core(sys, b: Symbol) -> np.ndarray:
    """A matrix C with the nonzero singular values of pi_b, from the tree.

    One row block per cube I at scales 0..N-1 (in basis order), one column
    block per scale-(N-1) cube Q; block (I, Q) is R_I |Q|^{1/2} / |I| when
    Q lies in I, read off `descendants`, and 0 otherwise.
    R_I^* R_I = W_I = sum_t (b_I^t)^* b_I^t: for m = 1, R_I is the real
    scalar (sum_t |b_I^t|^2)^{1/2}; for m > 1 it is the stacked colour
    blocks [b_I^1; ...; b_I^c], n_colors m rows.

    Why.  pi_b f = sum h_I^t b_I^t <f>_I sees f through E_{N-1} f alone, and
    the mean over I of the normalized indicator 1_Q |Q|^{-1/2} is
    |Q|^{1/2} / |I| for Q inside I, 0 otherwise.  Changing the columns from
    the coarse and Haar slots below scale N-1 to those indicators is
    unitary (the scale-(N-1) Haar columns of pi_b are zero), and the rows
    (I, t) of one cube are B_I = [b_I^t]_t times one row: for m = 1 the
    isometry B_I / |B_I| takes them to R_I.  So C is pi_b's nonzero rows
    after an isometry per cube and a unitary on the columns: its singular
    values are pi_b's, padded with zeros up to D m.  C is real for every
    scalar symbol, and has n_{N-1} m columns against pi_b's D m.

    Reads the symbol's blocks in basis order and the `descendants` tables,
    none of the tables `paraproduct` scatters, which stays its dense oracle.
    """
    N, m, c = sys.params.depth, b.blockdim, sys.n_colors
    n_cubes, n_last = (sys.dim_basis - 1) // c, len(sys.descendants(N - 1, 0))
    blocks = b.blocks[1:].reshape(n_cubes, c * m, m)  # each cube's colour blocks, stacked
    R = np.linalg.norm(blocks, axis=1, keepdims=True) if m == 1 else blocks
    C = np.zeros((n_cubes, R.shape[1], n_last, m), dtype=R.dtype)
    first = 0  # the scale's first cube, in basis order
    for s in range(N):
        inside = sys.descendants(s, N - 1 - s)  # the scale-(N-1) cubes in each scale-s cube
        n_s = len(inside)
        C[first + np.arange(n_s)[:, None], :, inside, :] = (
            R[first:first + n_s] * (sys.scale_measure(N - 1) ** 0.5 / sys.scale_measure(s)))[:, None]
        first += n_s
    return C.reshape(-1, n_last * m)


def _average_scatter(sys, b: Symbol, keep) -> np.ndarray:
    """The entries `keep` of `sys.cube_averages`, block (r, g) = value x b_r."""
    rows, cols, values = (a[keep] for a in sys.cube_averages)
    D, m = sys.dim_basis, b.blockdim
    prod = b.blocks[rows]
    prod *= values[:, None, None]
    out = np.zeros((D, m, D, m), dtype=complex)
    out[rows, :, cols, :] = prod
    return out.reshape(D * m, D * m)


def adjoint_paraproduct(sys, b: Symbol) -> np.ndarray:
    """Independent assembly of f -> sum_k E_{k-1}(d_k b^* d_k f); an oracle.

    Reads the dense `cube_average_matrix`, built from `basis_matrix` gathers,
    where paraproduct scatters the flat `cube_averages` written down the
    tree: two tables built independently.  Called only by the checks that
    compare against it: checks.check_adjoint (pi_b^* = paraproduct^H) and
    checks.check_triangle_split (pi_{b*}^*).
    """
    m = b.blockdim
    D = sys.dim_basis
    avg = sys.cube_average_matrix
    out = np.zeros((D * m, D * m), dtype=complex)
    for r in range(D - 1):
        col = 1 + r
        block = b.blocks[col].conj().T
        # output function is (1_I/|I|) b_I^{i*}; its basis coefficients are
        # the conjugated cube averages
        pattern = avg[r].conj()
        out[:, col * m:(col + 1) * m] += np.multiply.outer(pattern, block).reshape(D * m, m)
    return out


def mult_op(sys, b: Symbol) -> np.ndarray:
    """Pointwise left multiplication by the synthesized step function.

    A dense O(D^3) oracle for the decomposition M_b = pi + Lambda + R + K:
    `decompose` returns it as the bundle's `mult`, which
    checks.check_decompose compares the other four pieces against.
    """
    # M = H^H Y with Y[c, i, beta, j] = mu g_c[i, j] H[c, beta], scratch
    # that a complex table conjugates in place
    g, m, D, H = b.function().values, b.blockdim, sys.dim_basis, sys.basis_matrix
    Y = np.multiply(g[:, :, None, :], H[:, None, :, None])
    Y *= sys.cell_measure
    return _table_product(H, Y, adjoint=True).reshape(D * m, D * m)


def _colour_sums(sys) -> np.ndarray:
    """(n_colors, n_colors): the colour r of h^i h^t's phase on the children,
    i + t mod d, or i xor t in several dimensions (0: a constant).  With
    V = `child_values(s)`, mu = |child| and c = 1..n_colors, this is why
    mu sum_q V[q, i] V[q, t] = delta(r = 0) and
    mu sum_q conj(V[q, r]) V[q, i] V[q, t] = |Q|^{-1/2} delta(r = i + t):
    the phases are characters of Z_d, or of Z_2^dim, summed over the group."""
    c = np.arange(1, sys.n_colors + 1)
    return (c[:, None] + c) % sys.params.d if sys.params.dim == 1 else c[:, None] ^ c


def _colour_integrals(sys, b: Symbol) -> np.ndarray:
    """(D, m, m): at slot (Q, t) of a scale-s cube Q the integral of d_{s+1} b . h_Q^t,
    sum_i P[i, t] b_Q^i with P[i, t] = delta(i + t = 0) from `_colour_sums`,
    the same at every scale: one colour's block, exactly."""
    c, m = sys.n_colors, b.blockdim
    P = (_colour_sums(sys) == 0).astype(float)
    out = np.zeros((sys.dim_basis, m, m), dtype=complex)
    out[1:] = np.einsum("it,Qiab->Qtab", P, b.blocks[1:].reshape(-1, c, m, m)).reshape(-1, m, m)
    return out


def triangle_op(sys, b: Symbol) -> np.ndarray:
    """Lambda_b = sum_k M_{d_k b} S_{k-1}, from the tree.

    Column (Q, t) of a scale-s cube Q is d_{s+1} b . h_Q^t, which is
    sum_i b_Q^i h_Q^i h_Q^t on Q: constant on Q's children and zero off Q.
    Its coefficient on Q's own slot (Q, r) is sum_i T_s[r, i, t] b_Q^i, with
    T_s[r, i, t] = |Q|^{-1/2} delta(r = i + t) in the colour arithmetic of
    `_colour_sums`, so the diagonal r = t is an exact 0; on each slot J of
    Q's tree support it is conj(c_J(Q)) times its integral over Q
    (`_colour_integrals`), with c_J(Q) the `cube_averages` value; every
    other coefficient is an exact 0.  The support entries are one
    transposed scatter of `cube_averages`.
    """
    D, m = sys.dim_basis, b.blockdim
    colours = np.arange(1, sys.n_colors + 1)
    T = (_colour_sums(sys)[None] == colours[:, None, None]).astype(float)  # (r, i, t)
    lam = np.zeros((D, m, D, m), dtype=complex)
    for s in range(sys.params.depth):
        slots = sys.haar_slots(s)
        lam[slots[:, :, None], :, slots[:, None, :], :] = np.einsum(
            "rit,Qiab->Qrtab", sys.scale_measure(s) ** -0.5 * T, b.blocks[slots])
    rows, cols, values = sys.cube_averages
    lam[cols, :, rows, :] = values.conj()[:, None, None] * _colour_integrals(sys, b)[rows]
    return lam.reshape(D * m, D * m)


def triangle_tilde(sys, b: Symbol) -> np.ndarray:
    """LambdaTilde_b, an independent oracle assembled from its same-cube entries.

    Block diagonal over cubes: row (Q, s), column (Q, t) carries
    |Q|^{-1/2} b_Q^i for s != t, with colour i = (s - t) mod d, or s xor t in
    several dimensions.  Called only by checks.check_triangle_split
    (Lambda_b = pi_{b*}^* + LambdaTilde_b) and the tests.
    """
    m = b.blockdim
    arr = b.blocks
    D = sys.dim_basis
    lam_tilde = np.zeros((D, m, D, m), dtype=complex)
    s, t = np.nonzero(~np.eye(sys.n_colors, dtype=bool))  # colour - 1 of each pair
    i = (s - t) % sys.params.d - 1 if sys.params.dim == 1 else ((s + 1) ^ (t + 1)) - 1
    for k in range(sys.params.depth):
        cols, weight = sys.haar_slots(k), sys.scale_measure(k) ** -0.5
        lam_tilde[cols[:, s], :, cols[:, t], :] = weight * arr[cols[:, i]]
    return lam_tilde.reshape(D * m, D * m)


def r_op(sys, b: Symbol) -> np.ndarray:
    """R_b f = sum_{k=1..N} b_{k-1} . d_k f, with b_0 the coarse mean.

    R_b is block diagonal: every Haar slot of a scale-s cube Q carries the
    m x m block E_s b on Q, the mean of b over Q; the coarse slot carries 0.
    """
    m = b.blockdim
    out = np.zeros((sys.dim_basis, m, sys.dim_basis, m), dtype=complex)
    for k, means in enumerate(sys.cube_means(b.blocks)[:-1]):
        cols = sys.haar_slots(k)
        out[cols, :, cols, :] = means[:, None]
    return out.reshape(sys.dim_basis * m, sys.dim_basis * m)


def coarse_op(sys, b: Symbol) -> np.ndarray:
    """K_b f = (E_0 b)(E_0 f), the truncation boundary term."""
    m = b.blockdim
    out = np.zeros((sys.dim_basis * m,) * 2, dtype=complex)
    out[:m, :m] = b.coarse_mean
    return out


def decompose(sys, b: Symbol) -> OperatorBundle:
    """The operators of M_b = pi_b + Lambda_b + R_b + K_b, with the oracle M_b."""
    return OperatorBundle(
        pi=paraproduct(sys, b),
        lam=triangle_op(sys, b),
        r=r_op(sys, b),
        mult=mult_op(sys, b),
        coarse=coarse_op(sys, b),
    )


def band(sys, b: Symbol, n: int, m_scale: int) -> np.ndarray:
    """d_{m+1} pi_b d_{n+1}: input Haar scale n, output Haar scale m,
    scattered from the `cube_averages` entries of those scales alone."""
    N = sys.params.depth
    n, m_scale = _integer_field("n", n, 0, N - 1), _integer_field("m_scale", m_scale, 0, N - 1)
    out, inp = sys.scale_of_row()[np.stack(sys.cube_averages[:2])]  # of each entry
    return _average_scatter(sys, b, (out == m_scale) & (inp == n))


def splitting(sys, b: Symbol, n_step: int, k: int):
    """Arithmetic-progression band sums (pi_{b,k}, diagonal, off-diagonal).

    The bands kept have output Haar scale = k+1 and input Haar scale = k
    (mod n_step); the diagonal ones are those with output = input + 1, the
    off-diagonal ones those with output > input + 1.  Each part is scattered
    from the `cube_averages` entries it keeps.
    """
    n_step = _integer_field("n_step", n_step, 2)
    k = _integer_field("k", k, 0, n_step - 1)
    out, inp = sys.scale_of_row()[np.stack(sys.cube_averages[:2])]  # -1: the coarse column
    kept = (inp >= 0) & (out % n_step == (k + 1) % n_step) & (inp % n_step == k)
    diag = _average_scatter(sys, b, kept & (out == inp + 1))
    off = _average_scatter(sys, b, kept & (out > inp + 1))
    return diag + off, diag, off


def commutator_pieces(sys, a: Symbol, b: Symbol):
    """(Psi_{a,b}, V_{a,b}) for scalar a and block b, from the tree.

    Column (Q, t) of a scale-s cube Q starts from G = d_{s+1} b . h_Q^t,
    constant on Q's children; c_{Q,r}(I) is the `cube_averages` value of
    h_Q^r on a cube I strictly inside Q.  Psi = sum_j M_{(a - E_j a) d_j b}
    S_{j-1} has the block a_I^i c_{Q,t}(I) sum_r b_Q^r c_{Q,r}(I) at each
    such wavelet (I, i).  V has a_J^i |J|^{-1} (integral of G) at each
    wavelet (J, i) of Q and its ancestors: E_{k-1} of a function on Q is its
    integral over |J| on Q's scale-(k-1) ancestor J.  Every other entry is
    an exact 0, the coarse row and column included.
    """
    if a.blockdim != 1:
        raise ValueError("the outer symbol must be scalar")
    D, m, n_colors, alpha = sys.dim_basis, b.blockdim, sys.n_colors, a.blocks[:, 0, 0]
    rows, cols, values = (x[sys.cube_averages[1] > 0] for x in sys.cube_averages)
    # the entries of one row and one ancestor Q run over Q's colours in order
    prod = b.blocks[cols] * values[:, None, None]
    g = np.repeat(prod.reshape(-1, n_colors, m, m).sum(axis=1), n_colors, axis=0)
    psi = np.zeros((D, m, D, m), dtype=complex)
    psi[rows, :, cols, :] = (alpha[rows] * values)[:, None, None] * g
    integrals = _colour_integrals(sys, b)
    weights = np.zeros(D, dtype=complex)  # a_J^i / |J| at the slot (J, i)
    v = np.zeros((D, m, D, m), dtype=complex)
    for s in range(sys.params.depth):
        slots = sys.haar_slots(s)
        weights[slots] = alpha[slots] / sys.scale_measure(s)
        v[slots[:, :, None], :, slots[:, None, :], :] = (
            weights[slots][:, :, None, None, None] * integrals[slots][:, None])
    v[cols, :, rows, :] = weights[cols][:, None, None] * integrals[rows]
    return psi.reshape(D * m, D * m), v.reshape(D * m, D * m)


def rank_piece(sys, b: Symbol, cube, color) -> np.ndarray:
    """The paraproduct's block row of the wavelet (cube, color), alone."""
    row = sys.position(HaarIndex(cube, color))
    return _average_scatter(sys, b, sys.cube_averages[0] == row)

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
- adjoint_paraproduct, pi_b^* from cube averages, called by
  checks.check_adjoint (against paraproduct's conjugate transpose) and
  checks.check_triangle_split;
- triangle_tilde, LambdaTilde_b from its same-cube entries, called by
  checks.check_triangle_split (Lambda_b = pi_{b*}^* + LambdaTilde_b);
- apply_paraproduct, the matrix-free action, called by the tests against
  paraproduct.
No operator is built from one of the identities it is checked by.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Optional

import numpy as np

from .dyadic import FiniteDyadicSystem, HaarIndex, StepFunction, _einsum_into

__all__ = [
    "Symbol",
    "OperatorBundle",
    "random_symbol",
    "paraproduct",
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
    "scale_selector",
    "expectation_projector",
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


def _scalar_lift(a: Symbol, m: int) -> Symbol:
    """The scalar symbol a as the m x m symbol a I_m."""
    if m == 1:
        return a
    return Symbol.from_blocks(a.sys, np.eye(m) * a.blocks[:, :1, :1])


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
    kept = [k for k in range(sys.params.depth) if scales is None or k in scales]
    rows = np.flatnonzero(np.isin(sys.scale_of_row(), kept))
    z = rng.standard_normal((len(rows), 2, blockdim, blockdim))
    blocks = np.zeros((sys.dim_basis, blockdim, blockdim), dtype=complex)
    blocks[rows] = z[:, 0] + 1j * z[:, 1]
    if with_mean:
        shape = (blockdim, blockdim)
        blocks[0] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Symbol.from_blocks(sys, blocks)


def scale_selector(sys, cube_scale: int, blockdim: int = 1) -> np.ndarray:
    """Diagonal 0/1 matrix keeping Haar coordinates at the given cube scale."""
    mask = sys.scale_of_row() == cube_scale
    return np.repeat(mask, blockdim).astype(float)


def expectation_projector(sys, k: int, blockdim: int = 1) -> np.ndarray:
    """Diagonal of E_k in basis coordinates: coarse plus cube scales <= k-1."""
    scales = sys.scale_of_row()
    mask = (scales == -1) | (scales <= k - 1)
    return np.repeat(mask, blockdim).astype(float)


def apply_op(op: np.ndarray, sys, f: StepFunction) -> StepFunction:
    m = f.blockdim
    coeffs = sys.coeffs(f).reshape(sys.dim_basis * m, m)
    out = (op @ coeffs).reshape(sys.dim_basis, m, m)
    return sys.synthesize(out)


def apply_paraproduct(sys, b: Symbol, f: StepFunction) -> StepFunction:
    """Matrix-free action: sum over indices of h_I^i b_I^i (mean of f on I).

    One pass per scale, O(n m^2), with h_I^i on each child of I read from
    `sys.child_values`: an independent oracle of apply_op(paraproduct(sys, b),
    sys, f), which goes through the basis and average matrices.
    """
    m = b.blockdim
    if f.blockdim != m:
        raise ValueError("block dimensions of symbol and input differ")
    out = np.zeros_like(f.values)
    for k, (cells, cols, _) in enumerate(sys.scale_layouts):
        means = f.values[cells].mean(axis=1)  # (cube, m, m)
        terms = b.blocks[cols] @ means[:, None]  # (cube, colour, m, m)
        kids = sys.cells_by_scale[k + 1][sys.descendants(k, 1)]  # (cube, child, cell)
        out[kids] += np.einsum("qt,itab->iqab", sys.child_values(k), terms)[:, :, None]
    return StepFunction(out)


def paraproduct(sys, b: Symbol) -> np.ndarray:
    """Matrix of f -> sum h_I^i b_I^i <1_I/|I|, f> in the coarse+Haar basis.

    Block row (I, i) is b_I^i times the cube averages of the basis on I; the
    coarse output row stays zero.
    """
    D, m = sys.dim_basis, b.blockdim
    out = np.zeros((D, m, D, m), dtype=complex)
    _einsum_into("rg,rij->rigj", sys.cube_average_matrix, b.blocks[1:], out[1:])
    return out.reshape(D * m, D * m)


def adjoint_paraproduct(sys, b: Symbol) -> np.ndarray:
    """Independent assembly of f -> sum_k E_{k-1}(d_k b^* d_k f); an oracle.

    Called only by the checks that compare against it: checks.check_adjoint
    (pi_b^* = paraproduct^H) and checks.check_triangle_split (pi_{b*}^*).
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
        pattern = avg[r].astype(complex).conj()
        out[:, col * m:(col + 1) * m] += np.einsum("g,ij->gij", pattern, block).reshape(D * m, m)
    return out


def mult_op(sys, b: Symbol) -> np.ndarray:
    """Pointwise left multiplication by the synthesized step function.

    A dense O(D^3) oracle for the decomposition M_b = pi + Lambda + R + K:
    `decompose` returns it as the bundle's `mult`, which
    checks.check_decompose compares the other four pieces against.
    """
    return _mult_matrix(sys, b.function())


def _mult_matrix(sys, g: StepFunction) -> np.ndarray:
    m = g.blockdim
    D = sys.dim_basis
    # complex tables, one copy each: the contraction runs in BLAS, whose real
    # and complex kernels may sum in different orders
    a2c = np.multiply(sys.basis_matrix.conj().T, sys.cell_measure, dtype=complex)
    c2a = sys.basis_matrix.astype(complex, copy=False)
    out = np.einsum("bc,cij,cg->bigj", a2c, g.values, c2a, optimize=True)
    return out.reshape(D * m, D * m)


def _difference_function(sys, arr, k) -> StepFunction:
    """Synthesize d_k b from the coefficient array (cube scale k-1)."""
    coeffs = arr.copy()
    scales = sys.scale_of_row()
    coeffs[scales != k - 1] = 0.0
    return sys.synthesize(coeffs)


def triangle_op(sys, b: Symbol) -> np.ndarray:
    """Lambda_b = sum_k M_{d_k b} S_{k-1}, from pointwise products.

    One batched analysis per scale s: the column of the slot (Q, t) is the
    analysis of d_{s+1} b . h_Q^t, restricted to its tree support.
    """
    m = b.blockdim
    arr = b.blocks
    D = sys.dim_basis
    basis = sys.basis_matrix
    lam = np.zeros((D, m, D, m), dtype=complex)
    for cells, cols, rows in sys.scale_layouts:
        # (Q, cell, color), complex: the products below are complex anyway
        haar = basis[cells[:, :, None], cols[:, None, :]].astype(complex, copy=False)
        # d_{s+1} b on Q: only Q's own wavelets of scale s are nonzero there
        diff = np.einsum("qct,qtij->qcij", haar, arr[cols])
        prod = np.einsum("qcij,qct->qcitj", diff, haar)
        # entries of the analysis matrix on Q's cells and support rows
        analysis = np.multiply(basis[cells[:, None, :], rows[:, :, None]].conj(),
                               sys.cell_measure, dtype=complex)
        n_q, per = cells.shape
        block = (analysis @ prod.reshape(n_q, per, -1)).reshape(n_q, rows.shape[1], m, -1, m)
        lam[rows[:, :, None], :, cols[:, None, :], :] = block.transpose(0, 1, 3, 2, 4)
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
    for k, (_, cols, _) in enumerate(sys.scale_layouts):
        weight = float(sys.d_eff**-k) ** -0.5  # sys.measure's expression
        lam_tilde[cols[:, s], :, cols[:, t], :] = weight * arr[cols[:, i]]
    return lam_tilde.reshape(D * m, D * m)


def r_op(sys, b: Symbol) -> np.ndarray:
    """R_b f = sum_{k=1..N} b_{k-1} . d_k f, with b_0 the coarse mean.

    R_b is block diagonal: every Haar slot of a scale-s cube Q carries the
    m x m block E_s b on Q, the mean of b over Q; the coarse slot carries 0.
    """
    m = b.blockdim
    values = b.function().values
    out = np.zeros((sys.dim_basis, m, sys.dim_basis, m), dtype=complex)
    for cells, cols, _ in sys.scale_layouts:
        means = values[cells].mean(axis=1)  # (Q, m, m)
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
    """d_{m+1} pi_b d_{n+1}: input Haar scale n, output Haar scale m."""
    N = sys.params.depth
    if not (0 <= n < N and 0 <= m_scale < N):
        raise ValueError("band scales must lie inside the window")
    sel_in = scale_selector(sys, n, b.blockdim)
    sel_out = scale_selector(sys, m_scale, b.blockdim)
    return sel_out[:, None] * paraproduct(sys, b) * sel_in[None, :]


def splitting(sys, b: Symbol, n_step: int, k: int):
    """Arithmetic-progression band sums (pi_{b,k}, diagonal, off-diagonal).

    The bands kept have output Haar scale = k+1 and input Haar scale = k
    (mod n_step); the diagonal ones are those with output = input + 1, the
    off-diagonal ones those with output > input + 1.
    """
    if n_step < 2:
        raise ValueError("the progression step must be >= 2")
    if not (0 <= k < n_step):
        raise ValueError("k must lie in 0..n_step-1")
    scales = np.repeat(sys.scale_of_row(), b.blockdim)
    out, inp = scales[:, None], scales[None, :]
    kept = (inp >= 0) & (out % n_step == (k + 1) % n_step) & (inp % n_step == k)
    pi = paraproduct(sys, b)
    diag = np.where(kept & (out == inp + 1), pi, 0.0)
    off = np.where(kept & (out > inp + 1), pi, 0.0)
    return diag + off, diag, off


def commutator_pieces(sys, a: Symbol, b: Symbol):
    """(Psi_{a,b}, V_{a,b}) for scalar a; block b allowed."""
    if a.blockdim != 1:
        raise ValueError("the outer symbol must be scalar")
    m = b.blockdim
    arr_a = _scalar_lift(a, m).blocks
    arr_b = b.blocks
    N = sys.params.depth
    D = sys.dim_basis * m

    md_b = []
    for k in range(1, N + 1):
        sel = scale_selector(sys, k - 1, m)
        md_b.append(_mult_matrix(sys, _difference_function(sys, arr_b, k)) * sel[None, :])
    ma = [_mult_matrix(sys, _difference_function(sys, arr_a, k)) for k in range(1, N + 1)]

    psi = np.zeros((D, D), dtype=complex)
    prefix = np.zeros((D, D), dtype=complex)
    for k in range(2, N + 1):
        prefix += md_b[k - 2]
        psi += ma[k - 1] @ prefix

    v = np.zeros((D, D), dtype=complex)
    suffix = np.zeros((D, D), dtype=complex)
    for k in range(N, 0, -1):
        suffix += md_b[k - 1]
        proj = expectation_projector(sys, k - 1, m)
        v += ma[k - 1] @ (proj[:, None] * suffix)
    return psi, v


def rank_piece(sys, b: Symbol, cube, color) -> np.ndarray:
    m = b.blockdim
    D = sys.dim_basis
    row = sys.position(HaarIndex(cube, color))
    block = b.blocks[row]
    out = np.zeros((D * m, D * m), dtype=complex)
    pattern = sys.cube_average_matrix[row - 1].astype(complex, copy=False)
    out[row * m:(row + 1) * m, :] = np.einsum("ij,g->igj", block, pattern).reshape(m, D * m)
    return out


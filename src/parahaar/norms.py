"""Besov and BMO functionals of symbols and step functions.

Block values are measured in L_p of (M_m, normalized trace) by `spectral`;
the oscillation form sums scales 0..N-1 (the k = 0 term replaces the
vanishing k = N one), which is exactly the windowed pair the telescoping
constants control.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .dyadic import StepFunction, _integer_field, _offset_at, expectation
from .paraproducts import Symbol
from .spectral import (_power_sums, _require_positive, _weighted_sum, block_norms,
                       block_singular_values)

__all__ = [
    "besov_haar",
    "besov_haars",
    "besov_diff",
    "besov_diffs",
    "besov_osc",
    "bmo_dyadic",
    "bmo_operator",
    "besov_continuums",
    "besov_haar_adjacents",
    "BmoForms",
]

BmoForms = namedtuple("BmoForms", ["conditional", "coefficient"])


def besov_haar(sys, b: Symbol, p) -> float:
    """(sum_Q (|Q|^{-1/2} ||b_Q||_p)^p)^{1/p}; at p = inf the largest term."""
    return besov_haars(sys, b, (p,))[0]


def besov_haars(sys, b: Symbol, ps) -> list[float]:
    """[besov_haar(sys, b, p) for p in ps], from one batched block SVD."""
    w = np.array([sys.scale_measure(s) ** -0.5 for s in range(sys.params.depth)])
    w = w[sys.scale_of_row()[1:]]
    return [_weighted_sum(w * lps, p) for p, lps in zip(ps, block_norms(b.blocks[1:], ps))]


def besov_diff(sys, b: Symbol, p) -> float:
    """(sum_k d^k ||d_k b||_p^p)^{1/p}; at p = inf, max_k ||d_k b||_inf."""
    return besov_diffs(sys, b, (p,))[0]


def besov_diffs(sys, b: Symbol, ps) -> list[float]:
    """[besov_diff(sys, b, p) for p in ps] from one walk down the tree and one
    block SVD.  As d^k |Q| = 1 for a scale-k cube Q, the sum runs over the
    blocks of d_k b, a cube's mean less its parent's, on the cubes of scales
    1..N."""
    means = sys.cube_means(b.blocks)
    diffs = np.concatenate([(means[k][sys.descendants(k - 1, 1)] - means[k - 1][:, None])
                            .reshape(means[k].shape) for k in range(1, len(means))])
    return [_weighted_sum(lps, p) for p, lps in zip(ps, block_norms(diffs, ps))]


def _oscillations(sys, b: Symbol):
    """b - E_k b for k = 0..N-1, each (n_k, cells per cube, m, m): b on the
    cells of each scale-k cube less its mean, from one walk down the tree;
    its scale-N means are b's cell values, placed as `synthesize` does."""
    means = sys.cube_means(b.blocks)
    values = np.empty_like(means[-1])
    values[sys.cells_by_scale[-1][:, 0]] = means[-1]
    for k in range(len(means) - 1):
        yield values[sys.cells_by_scale[k]] - means[k][:, None]


def besov_osc(sys, b: Symbol, p) -> float:
    """(sum_{k<N} d^k ||b - E_k b||_p^p)^{1/p}; at p = inf, max_k ||b - E_k b||_inf."""
    _require_positive((p,))
    if p < 1:
        raise ValueError("the oscillation form needs p >= 1")
    lps = [_weighted_sum(block_norms(dev.reshape((-1,) + dev.shape[2:]), (p,))[0], p,
                         sys.cell_measure) for dev in _oscillations(sys, b)]
    return _weighted_sum(lps, p, float(sys.d_eff) ** np.arange(sys.params.depth))


def bmo_dyadic(sys, b: Symbol) -> BmoForms:
    """Scalar dyadic BMO, conditional-square-function and coefficient forms."""
    if b.blockdim != 1:
        raise ValueError("bmo_dyadic is scalar; use bmo_operator for blocks")
    f = b.function()
    N = sys.params.depth

    form_a = 0.0
    tail = np.zeros(sys.n_cells)
    upper = expectation(sys, f, N)  # E_{n+1} f; each E_n f is taken once
    for n in range(N - 1, -1, -1):
        lower = expectation(sys, f, n)
        tail = tail + np.abs((upper - lower).scalar()) ** 2
        cond = expectation(sys, StepFunction(tail.astype(complex)), n)
        form_a = max(form_a, float(np.sqrt(cond.scalar().real.max())))
        upper = lower

    form_b = 0.0
    energy = np.abs(b.blocks[:, 0, 0]) ** 2
    mass = np.zeros(sys.n_cells)
    for k in range(N - 1, -1, -1):  # per cube, its colours' mass plus its children's
        mass = energy[sys.haar_slots(k)].sum(axis=1) + mass[sys.descendants(k, 1)].sum(axis=1)
        form_b = max(form_b, float(np.sqrt(mass / sys.scale_measure(k)).max()))
    return BmoForms(form_a, form_b)


def bmo_operator(sys, b: Symbol) -> float:
    """sup over cubes of the mean quadratic oscillation in the block operator norm."""
    return max(float(np.sqrt((block_singular_values(dev)[..., 0] ** 2).mean(axis=1)).max())
               for dev in _oscillations(sys, b))


def grid_coords(n_cells: int, cells_per_axis: int, dim: int) -> np.ndarray:
    """Axis coordinates per cell id, axis 0 fastest (the system convention)."""
    c = np.arange(n_cells)
    return np.stack([(c // cells_per_axis**t) % cells_per_axis for t in range(dim)], axis=-1)


def cell_midgrids(cells_per_axis: int, dim: int, refinement: int) -> np.ndarray:
    """Midpoints of the refinement**dim subcells of each cell, (n_cells, n_sub, dim)."""
    h = 1.0 / cells_per_axis
    sub = h / refinement
    lowers = grid_coords(cells_per_axis**dim, cells_per_axis, dim) * h
    offs = (grid_coords(refinement**dim, refinement, dim) + 0.5) * sub
    return lowers[:, None, :] + offs[None, :, :]


def cell_pair_means(evaluate, cells_per_axis: int, dim: int, refinement: int) -> np.ndarray:
    """|cell| times the mean of evaluate(x, y) over the refinement**dim subcell
    midpoints of each ordered cell pair, a complex (n_cells, n_cells) matrix
    with a zero diagonal; `evaluate` takes points of shape (..., dim)."""
    # the n x n matrix is allocated before the midpoint grids, so that a
    # process that discretizes again finds the block the last matrix freed
    # before a temporary can cut into it and grow the heap by another n^2
    n_cells = cells_per_axis**dim
    avg = np.zeros((n_cells, n_cells), dtype=complex)
    mids = cell_midgrids(cells_per_axis, dim, refinement)
    nsub = mids.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(n_cells):
            va = evaluate(mids[a][:, None, :], mids.reshape(-1, dim)[None, :, :])
            avg[a] = va.reshape(nsub, n_cells, nsub).mean(axis=(0, 2))
    np.fill_diagonal(avg, 0.0)
    avg *= cells_per_axis ** (-dim)
    return avg


@functools.cache
def _grid_weights(cells_per_axis: int, dim: int, refinement: int) -> np.ndarray:
    """Read-only cell-pair quadrature weights of the continuum form: the
    kernel |x - y|^(-2 dim) integrated over each pair of distinct cells."""
    W = cell_pair_means(lambda x, y: ((x - y) ** 2).sum(axis=-1) ** -float(dim),
                        cells_per_axis, dim, refinement).real * cells_per_axis ** (-dim)
    W.setflags(write=False)
    return W


def besov_continuums(values, ps, dim: int = 1, refinement: int = 4) -> list[float]:
    """Double-integral Besov functional of a step function on a uniform grid,
    at each p in ps, from one SVD of the cell-pair differences.  `values` is
    (cells,) or (cells, m, m), as `StepFunction` takes it.

    Same-cell pairs contribute 0 exactly; off-cell pairs use the midpoint
    rule with `refinement` subdivisions per axis (monotone increasing in the
    refinement, the kernel being convex off the diagonal).  At p = inf, the
    p -> inf limit max_{x != y} ||b_x - b_y||_inf (W > 0 off the diagonal).
    """
    _require_positive(ps)
    dim = _integer_field("dim", dim, 1)
    refinement = _integer_field("refinement", refinement, 1)
    values = StepFunction(values).values
    n_cells = values.shape[0]
    cells_per_axis = round(n_cells ** (1.0 / dim))
    if cells_per_axis ** dim != n_cells:
        raise ValueError("values must fill a uniform grid over the window")
    W = _grid_weights(cells_per_axis, dim, refinement)
    sv = block_singular_values(values[:, None] - values[None, :])
    # at p = inf the largest pair value: same-cell pairs are 0
    return [float(sv[..., 0].max()) if p == np.inf
            else float((W * _power_sums(sv, p, values.shape[1])).sum() ** (1.0 / float(p)))
            for p in ps]


@functools.cache
def _half_overlaps(k: int, variant: int, depth: int):
    """(L, R): overlaps of the left and right halves of each scale-k cube of
    one axis of a shifted lattice, fully inside [0, 1), with the 2^depth cells.

    Both are read-only (n_cubes, 2^depth) arrays, cubes in lattice order.
    Every edge is a multiple of 1/(3 * 2^depth), so the overlaps are counted
    exactly in those units and rounded once.
    """
    n = 2**depth
    h = Fraction(1, 2**k)
    off = _offset_at(k, variant)
    m = np.arange(-(off // h), (1 - off) // h)
    unit = Fraction(1, 3 * n)
    lo = int(off / unit) + m[:, None] * int(h / unit)
    half = int(h / 2 / unit)
    cells = 3 * np.arange(n)

    def overlap(a, b):
        out = np.clip(np.minimum(b, cells + 3) - np.maximum(a, cells), 0, None) / (3 * n)
        out.setflags(write=False)
        return out

    return overlap(lo, lo + half), overlap(lo + half, lo + 2 * half)


def besov_haar_adjacents(values, ps, dim: int, variant_mask: int) -> list[float]:
    """Haar-coefficient Besov sum of a standard-grid step function over one
    shifted lattice of the covering family (cubes fully inside the window), at
    each p in ps, from one set of terms.

    The grid's depth is read from len(values) = 2^(depth dim).  Coefficients
    are exact overlap integrals of the piecewise-constant input against the
    shifted wavelets; scalar values only.  Bit t of `variant_mask`, an integer
    in 0..2^dim - 1, picks axis t's lattice variant.  Terms run by scale, then
    cube (last axis fastest), then colour; at p = inf, the largest term.
    """
    _require_positive(ps)
    dim = _integer_field("dim", dim, 1)
    variant_mask = _integer_field("variant_mask", variant_mask, 0, 2**dim - 1)
    values = np.asarray(values, dtype=complex)
    depth = (values.size.bit_length() - 1) // dim
    n_axis = 2**depth
    if values.shape != (n_axis**dim,):
        raise ValueError(f"values must be one scalar per cell of a grid of 2^depth cells "
                         f"per axis in dimension {dim}; got shape {values.shape}")
    grid = values.reshape([n_axis] * dim, order="F")  # cell id = sum c_t n^t
    terms = [np.empty(0)]  # a one-cell grid has no terms
    for k in range(depth):
        halves = [_half_overlaps(k, (variant_mask >> t) & 1, depth) for t in range(dim)]
        # colour eta takes L + R on axis t when bit t of eta is 0, else L - R
        sums = [L + R for L, R in halves]
        diffs = [L - R for L, R in halves]
        coeffs = []
        for eta in range(1, 2**dim):
            c = grid
            for t in range(dim):
                # contracts the leading cell axis; the cube axis goes last
                c = np.tensordot(c, (diffs if (eta >> t) & 1 else sums)[t], axes=([0], [1]))
            coeffs.append(c)
        meas = 2.0 ** (-k * dim)
        coeff = np.stack(coeffs, axis=-1).ravel() * meas**-0.5  # wavelet amplitude |Q|^{-1/2}
        terms.append(np.abs(coeff) / meas**0.5)
    terms = np.concatenate(terms)
    return [_weighted_sum(terms, p) for p in ps]

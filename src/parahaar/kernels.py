"""Singular-kernel validation, discretization, far-point probes, and the
scalar weak-factorization engine.

Grid operators live on the uniform cells of [0,1)^dim in the orthonormal
cell-indicator basis, so Schatten norms read off the stored matrix directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .dyadic import _integer_field
from .norms import cell_pair_means
from .spectral import _require_number, _require_positive, _weighted_sum

__all__ = [
    "KernelSpec",
    "hilbert_kernel",
    "homogeneous_sign_kernel",
    "standard_check",
    "nondegenerate_probe",
    "GridOperator",
    "discretize",
    "commutator_grid_op",
    "weak_factorization",
    "random_admissible_family",
    "nwo_quantities",
    "testing_quantity",
]


@dataclass
class KernelSpec:
    """K(x, y) for x != y in R^dim with declared standard-estimate constants.

    `evaluate` is vectorized over trailing axes: inputs shape (..., dim).
    nondegeneracy: ("pointwise", c0) or ("homogeneous", Omega, theta0) where
    Omega maps unit vectors to complex values and theta0 is a Lebesgue point
    with Omega(theta0) != 0.
    """

    evaluate: Callable
    dim: int
    C: float
    alpha: float
    nondegeneracy: tuple = ("pointwise", 1.0)
    name: str = "kernel"

    def __post_init__(self):
        self.dim = _integer_field("dim", self.dim, 1)
        _require_number("C", self.C, "a finite number > 0", lambda C: 0 < C < np.inf)
        _require_number("alpha", self.alpha, "a number in (0, 1]", lambda alpha: 0 < alpha <= 1)

def _reciprocal_difference(x, y):
    """1 / (x - y) = sign(x - y) / |x - y| on the first coordinate."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 1.0 / (x[..., 0] - y[..., 0])


def hilbert_kernel() -> KernelSpec:
    return KernelSpec(_reciprocal_difference, 1, C=1.0, alpha=1.0,
                      nondegeneracy=("pointwise", 1.0), name="hilbert")


def homogeneous_sign_kernel() -> KernelSpec:
    """Odd homogeneous kernel sign(x-y)/|x-y| with Lebesgue point theta0 = +1."""

    def omega(theta):
        return np.sign(np.asarray(theta, dtype=float)[..., 0]) + 0j

    return KernelSpec(_reciprocal_difference, 1, C=1.0, alpha=1.0,
                      nondegeneracy=("homogeneous", omega, np.array([1.0])), name="sign")


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    if x.shape[-1] != dim:
        x = x[..., None] if dim == 1 else x
    return x


def standard_check(K: KernelSpec, samples: Sequence[Tuple]) -> dict:
    """Verify the size and Holder difference bounds at every sample.

    Each sample is (x, xp, y) with |x - y| > 2 |x - xp| > 0.  Returns worst
    ratios and the list of violations (empty when the declared constants
    hold).
    """
    worst_size = 0.0
    worst_diff = 0.0
    violations = []
    for (x, xp, y) in samples:
        x = _as_points(x, K.dim)
        xp = _as_points(xp, K.dim)
        y = _as_points(y, K.dim)
        dxy = np.linalg.norm(x - y)
        dxxp = np.linalg.norm(x - xp)
        if not (dxy > 2 * dxxp > 0):
            raise ValueError("sample violates |x-y| > 2|x-x'| > 0")
        def _ev(a, b):
            return complex(np.asarray(K.evaluate(a, b)).ravel()[0])

        size = abs(_ev(x, y)) * dxy**K.dim / K.C
        # under the sampling constraint each single difference obeys the
        # Holder bound with witness constant 2C (ratio normalized to 1)
        diff = max(
            abs(_ev(x, y) - _ev(xp, y)),
            abs(_ev(y, x) - _ev(y, xp)),
        ) * dxy ** (K.dim + K.alpha) / (2 * K.C * dxxp**K.alpha)
        worst_size = max(worst_size, float(size))
        worst_diff = max(worst_diff, float(diff))
        if size > 1 + 1e-12 or diff > 1 + 1e-12:
            violations.append((tuple(x.ravel()), tuple(xp.ravel()), tuple(y.ravel()), float(size), float(diff)))
    return {"worst_size_ratio": worst_size, "worst_diff_ratio": worst_diff, "violations": violations}


def _ball_samples(center, r, dim):
    center = np.asarray(center, dtype=float).reshape(dim)
    offs = [np.zeros(dim)]
    for t in range(dim):
        for s in (-1.0, 1.0):
            for frac in np.linspace(0.2, 1.0, 5):
                e = np.zeros(dim)
                e[t] = s * frac * r
                offs.append(e)
    if dim > 1:
        diag = np.ones(dim) / np.sqrt(dim)
        for s in (-1.0, 1.0):
            offs.append(s * r * diag)
    return center[None, :] + np.array(offs)


def nondegenerate_probe(K: KernelSpec, x0, r: float, A: float) -> dict:
    """Find the far point of the critical-decay property and its witnesses."""
    _require_number("r", r, "a finite number > 0", lambda r: 0 < r < np.inf)
    _require_number("A", A, "a finite number >= 3", lambda A: 3 <= A < np.inf)
    x0 = np.asarray(x0, dtype=float).reshape(K.dim)
    kind = K.nondegeneracy[0]
    threshold = 1.0
    if kind == "pointwise":
        if K.dim > 2:
            raise ValueError(f"the pointwise direction search covers dim 1 and 2, got dim {K.dim}")
        c0 = K.nondegeneracy[1]
        threshold = 1.0 / (c0 * (A * r) ** K.dim)
        y0 = None
        if K.dim == 1:
            dirs = [np.array([1.0]), np.array([-1.0])]
        else:
            angles = np.linspace(0, 2 * np.pi, 64, endpoint=False)
            dirs = [np.array([np.cos(a), np.sin(a)]) for a in angles]
        for scale in 1.0 + np.linspace(0.0, max(1.0, (c0 * K.C) ** (1.0 / K.dim) - 1.0), 33):
            for d in dirs:
                cand = x0 + A * r * scale * d
                if float(np.abs(K.evaluate(cand[None, :], x0[None, :]))[0]) >= threshold:
                    y0 = cand
                    break
            if y0 is not None:
                break
        if y0 is None:
            raise RuntimeError(
                "probe exhausted candidates: kernel does not realize its "
                "declared pointwise lower bound at this (x0, r, A)"
            )
    elif kind == "homogeneous":
        _, omega, theta0 = K.nondegeneracy
        theta0 = np.asarray(theta0, dtype=float).reshape(K.dim)
        y0 = x0 + A * r * theta0
        c0 = float(1.0 / np.abs(omega(theta0[None, :]))[0])
        threshold = float(np.abs(K.evaluate(y0[None, :], x0[None, :]))[0])
    else:
        raise ValueError(f"unknown nondegeneracy class {kind!r}")

    k00 = complex(np.asarray(K.evaluate(y0[None, :], x0[None, :])).ravel()[0])
    dist = float(np.linalg.norm(x0 - y0))
    bracket = (A * r, (c0 * K.C) ** (1.0 / K.dim) * A * r)

    xs = _ball_samples(x0, r, K.dim)
    ys = _ball_samples(y0, r, K.dim)
    vals = K.evaluate(ys[:, None, :], xs[None, :, :])
    diff = np.abs(vals - k00).max()
    return {
        "y0": y0,
        "K00": k00,
        "dist": dist,
        "bracket": bracket,
        # eps: relative deviation over the witness pairs, the quantity the
        # far-point argument drives to zero as A grows (strictly, for real
        # kernels as well as complex ones)
        "eps": float(diff / abs(k00)),
        "threshold": threshold,
    }


@dataclass
class GridOperator:
    matrix: np.ndarray  # orthonormal cell-indicator representation
    dim: int
    cells_per_axis: int

    def __post_init__(self):
        n = self.cells_per_axis ** self.dim
        if np.shape(self.matrix) != (n, n):
            raise ValueError(f"matrix must be {n} x {n}, one row per cell, "
                             f"got shape {np.shape(self.matrix)}")

    @property
    def n_cells(self):
        return self.matrix.shape[0]

    @property
    def cell_measure(self):
        return float(self.cells_per_axis ** (-self.dim))

    def apply(self, values):
        values = np.asarray(values, dtype=complex)
        mu = np.sqrt(self.cell_measure)
        return (self.matrix @ (values * mu)) / mu

    def adjoint_apply(self, values):
        values = np.asarray(values, dtype=complex)
        mu = np.sqrt(self.cell_measure)
        # conj(conj(v)^T M) = M^H v, with no conjugated copy of M
        return np.conj(np.conj(values * mu) @ self.matrix) / mu


def discretize(K: KernelSpec, cells_per_axis: int, refinement: int = 2) -> GridOperator:
    """Cell-pair midpoint averages of the kernel; diagonal set to zero.

    The zero diagonal is the principal-value surrogate, unbiased exactly for
    antisymmetric convolution kernels and a documented bias otherwise.
    """
    cells_per_axis = _integer_field("cells_per_axis", cells_per_axis, 1)
    refinement = _integer_field("refinement", refinement, 1)
    return GridOperator(cell_pair_means(K.evaluate, cells_per_axis, K.dim, refinement),
                        K.dim, cells_per_axis)


def commutator_grid_op(T: GridOperator, b_values) -> GridOperator:
    """[T, M_b] = T M_b - M_b T, the products as column and row scalings."""
    b = np.asarray(b_values, dtype=complex)
    return GridOperator(T.matrix * b[None, :] - b[:, None] * T.matrix, T.dim, T.cells_per_axis)


def weak_factorization(f_values, q_cells, qt_cells, T: GridOperator) -> dict:
    """Decompose f = g T(h) - h conj(T* g) + ftilde on the grid.

    f must be supported on Q with zero mean; g is the far-cube indicator and
    the remainder ftilde is supported there with zero mean.  Raises when
    T*(g) vanishes somewhere on Q (the separation parameter is too small).
    """
    f = np.asarray(f_values, dtype=complex)
    q_cells = np.asarray(q_cells, dtype=int)
    qt_cells = np.asarray(qt_cells, dtype=int)
    if np.intersect1d(q_cells, qt_cells).size:
        raise ValueError("the two cubes must be disjoint")
    outside = np.setdiff1d(np.arange(f.size), q_cells)
    if np.abs(f[outside]).max(initial=0.0) > 0:
        raise ValueError("f must be supported on the near cube")
    if abs(f[q_cells].sum()) > 1e-9 * max(1.0, np.abs(f).sum()):
        raise ValueError("f must have zero mean on the near cube")

    g = np.zeros(f.size, dtype=complex)
    g[qt_cells] = 1.0
    tsg = T.adjoint_apply(g)
    denom = np.conj(tsg)
    if np.abs(denom[q_cells]).min() < 1e-14:
        raise RuntimeError("T*(g) vanishes on the near cube: increase the separation")
    h = np.zeros_like(f)
    h[q_cells] = -f[q_cells] / denom[q_cells]
    th = T.apply(h)
    ftilde = np.zeros_like(f)
    ftilde[qt_cells] = -th[qt_cells]

    recon = g * th - h * denom + ftilde
    mu = T.cell_measure

    def l2(v):
        return float(np.sqrt((np.abs(v) ** 2).sum() * mu))

    norm_f = l2(f)
    return {
        "g": g,
        "h": h,
        "ftilde": ftilde,
        "residual": float(np.abs(recon - f).max()),
        "ftilde_mean": complex(ftilde[qt_cells].sum() * mu),
        "h_ratio": l2(h) / norm_f if norm_f else 0.0,
        "remainder_ratio": l2(ftilde) / norm_f if norm_f else 0.0,
    }


def random_admissible_family(sys, rng):
    """Per Haar cube I, (cells of I, e_I, f_I): random values on I's cells, of
    modulus <= |I|^{-1/2}; off I the pair vanishes and is not stored."""
    fams = []
    for k in range(sys.params.depth):
        bound = sys.scale_measure(k) ** -0.5
        for cells in sys.cells_by_scale[k]:  # the cubes in rank order
            e, f = (bound * np.sqrt(rng.uniform(0, 1, cells.size))
                    * np.exp(2j * np.pi * rng.uniform(0, 1, cells.size)) for _ in range(2))
            fams.append((cells, e, f))
    return fams


def nwo_quantities(V: GridOperator, families, ps) -> list[float]:
    """(sum_I |<e_I, V f_I>|^p)^(1/p) over the supplied admissible family at
    each p in ps, each pairing mu e_I^H V_II f_I read off V's (I, I) block
    of cells once; max_I |<e_I, V f_I>| at p = inf."""
    _require_positive(ps)
    mu = V.cell_measure
    pairs = np.array([abs(np.vdot(e, V.matrix[np.ix_(cells, cells)] @ f) * mu)
                      for cells, e, f in families])
    return [_weighted_sum(pairs, p) for p in ps]


def testing_quantity(C: GridOperator, sys, b_values, A: int, p) -> float:
    """Separated-cube quadrant-set pairings against the commutator.

    For every dyadic cube I with a same-scale partner at distance ~ A cells,
    takes the four quadrant-matched (E_s, F_s) test pairs of each child Q of
    I and sums A^{dim p} |<e, C f>|^p; at p = inf, the largest A^dim |<e, C f>|.
    A pairing is mu / |I| times the sum of C's (F_s, E_s in Q) block of cells.
    """
    from .median import quadrant_sets

    _require_positive((p,))
    if sys.params.dim != C.dim:
        raise ValueError("system and operator dimensions differ")
    A = _integer_field("the separation A", A, 1)
    b_values = np.asarray(b_values, dtype=complex)
    pairs = []  # (k, rank, cells of I, cells of its partner)
    for k in range(1, sys.params.depth):
        per = sys.axis_count(k)
        shift = max(1, min(A, per - 1))
        cells = sys.cells_by_scale[k]
        for rank, cells_i in enumerate(cells):
            idx = list(sys.cube_index(k, rank))
            idx[0] = idx[0] + shift if idx[0] + shift < per else idx[0] - shift
            if idx[0] < 0:
                continue
            pairs.append((k, rank, cells_i, cells[sys.cube_rank(k, idx)]))
    cone_sets = quadrant_sets([(b_values[cells_i], b_values[cells_hat], sys.scale_measure(k))
                               for k, _, cells_i, cells_hat in pairs])
    terms = []
    for (k, rank, cells_i, cells_hat), (_, _, e_sets, f_sets) in zip(pairs, cone_sets):
        weight = A ** sys.params.dim * C.cell_measure / sys.scale_measure(k)
        block = C.matrix[np.ix_(cells_hat, cells_i)]
        for cells_q in sys.cells_by_scale[k + 1][sys.descendants(k, 1)[rank]]:
            in_child = np.isin(cells_i, cells_q)
            for s in range(4):
                e_in_q = e_sets[s][in_child[e_sets[s]]]
                terms.append(weight * abs(block[np.ix_(f_sets[s], e_in_q)].sum()))
    return _weighted_sum(np.array(terms), p)

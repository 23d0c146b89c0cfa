"""Dyadic shifts of complexity (i, j) on binary systems.

A shift couples, inside every cube K, the Haar coordinates of the i-th
generation of K to those of the j-th, with coefficients bounded by
sqrt(|I||J|)/|K|.  Only cubes whose both generations fit inside the window
carry coefficients.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional, Tuple

import numpy as np

from .dyadic import CubeId, FiniteDyadicSystem, GridShift, _table_product
from .paraproducts import Symbol, mult_op, r_op

__all__ = [
    "ShiftSpec",
    "coefficient_radius",
    "random_shift",
    "assemble_shift",
    "phi_blocks",
    "commutator_growth_sweep",
    "averaged_shift_cell_matrix",
]


def coefficient_radius(dim: int, i: int, j: int, k_scale: int) -> float:
    """sqrt(|I||J|)/|K| for I, J at generations i, j below a scale-k cube."""
    d_eff = 2**dim
    size_k = float(d_eff) ** (-k_scale)
    return float(np.sqrt(d_eff ** (-(k_scale + i)) * d_eff ** (-(k_scale + j))) / size_k)


class ShiftSpec:
    """The coefficients a(I, J, K, xi, eta) of a shift of complexity (i, j).

    Stored as read-only arrays with one entry per coefficient: `cubes`
    (n, 3, 1 + dim) holds the labels of I, J and K, each a scale followed by
    the cube's index; `colors` (n, 2) holds xi and eta; `values` (n,) the
    coefficients.  `random_shift` keeps them in (K, I, J, xi, eta) order.  The
    constructor takes a {(I, J, K, xi, eta): a} table of CubeIds;
    `from_arrays` takes the arrays.  Both reject a coefficient that is not
    finite or exceeds the radius at K's scale.
    """

    def __init__(self, i: int, j: int, dim: int,
                 coeffs: Optional[Dict[Tuple[CubeId, CubeId, CubeId, int, int], complex]] = None):
        coeffs = {} if coeffs is None else coeffs
        keys = list(coeffs)
        labels = [(cube.scale, *cube.index) for key in keys for cube in key[:3]]
        if any(len(label) != 1 + dim for label in labels):
            n = next(n for n, label in enumerate(labels) if len(label) != 1 + dim)
            raise ValueError(f"entry {keys[n // 3]} has a cube that is not {dim}-dimensional")
        # fromiter over plain values: a CubeId key hashes slowly, and np.array
        # of tuples or numpy scalars converts one element at a time
        n = len(keys)
        self._adopt(i, j, dim,
                    np.fromiter(chain.from_iterable(labels), np.int64).reshape(n, 3, 1 + dim),
                    np.fromiter(chain.from_iterable(key[3:] for key in keys), np.int64)
                    .reshape(n, 2),
                    np.fromiter(coeffs.values(), complex, n))

    @classmethod
    def from_arrays(cls, i: int, j: int, dim: int, cubes, colors, values) -> "ShiftSpec":
        """Spec with the given label, colour and value arrays (copied)."""
        cubes = np.array(cubes, dtype=np.int64)
        colors = np.array(colors, dtype=np.int64)
        values = np.array(values, dtype=complex)
        n = len(values)
        if values.shape != (n,) or cubes.shape != (n, 3, 1 + dim) or colors.shape != (n, 2):
            raise ValueError(f"need cubes ({n}, 3, {1 + dim}), colors ({n}, 2) and values ({n},); "
                             f"got {cubes.shape}, {colors.shape} and {values.shape}")
        spec = cls.__new__(cls)
        spec._adopt(i, j, dim, cubes, colors, values)
        return spec

    def _adopt(self, i, j, dim, cubes, colors, values):
        for a in (cubes, colors, values):
            a.flags.writeable = False
        self.i, self.j, self.dim = i, j, dim
        self.cubes, self.colors, self.values = cubes, colors, values
        bound = self.bounds()
        # hypot is the scalar abs bit for bit; a NaN fails the comparison
        outside = ~(np.hypot(values.real, values.imag) <= bound * (1 + 1e-12))
        if outside.any():
            n = int(outside.argmax())
            raise ValueError(f"coefficient {abs(values[n]):.6g} at {self.entry(n)} "
                             f"is not within the bound {bound[n]:.6g}")

    def bounds(self) -> np.ndarray:
        """coefficient_radius at each coefficient's K scale."""
        scales, inverse = np.unique(self.cubes[:, 2, 0], return_inverse=True)
        radius = np.array([coefficient_radius(self.dim, self.i, self.j, int(k)) for k in scales])
        return radius[inverse.reshape(-1)]

    def entry(self, n: int):
        """Coefficient n's key (I, J, K, xi, eta)."""
        I, J, K = (CubeId(int(c[0]), tuple(int(x) for x in c[1:])) for c in self.cubes[n])
        return I, J, K, int(self.colors[n, 0]), int(self.colors[n, 1])


def _cube_labels(sys: FiniteDyadicSystem, scale, rank) -> np.ndarray:
    """Labels, scale then index on a last axis, of the cubes (scale, rank)."""
    scale, rank = np.broadcast_arrays(scale, rank)
    return np.stack([scale, *sys.cube_index(scale, rank)], axis=-1)


def _generations(sys: FiniteDyadicSystem, i: int, j: int):
    """(radius, gen_i, gen_j, cubes) of every K whose generations i and j fit the window.

    K runs by scale and then by rank.  radius (n_K,) is the
    coefficient radius at K's scale, gen_i (n_K, n_I) and gen_j (n_K, n_J) are
    K's `descendants` rows, and cubes (n_K, n_I, n_J, 3, 1 + dim) the labels
    of I, J and K.
    """
    dim = sys.params.dim
    scales = range(sys.params.depth - max(i, j))
    counts = [len(sys.cells_by_scale[k]) for k in scales]
    scale = np.repeat(scales, counts)  # of each K
    own = np.concatenate([np.arange(n) for n in counts])  # each K's rank in its scale
    gen_i = np.concatenate([sys.descendants(k, i) for k in scales])
    gen_j = np.concatenate([sys.descendants(k, j) for k in scales])
    radius = np.array([coefficient_radius(dim, i, j, k) for k in scales])[scale]
    cubes = np.empty(gen_i.shape + gen_j.shape[1:] + (3, 1 + dim), dtype=np.int64)
    cubes[:, :, :, 0] = _cube_labels(sys, scale[:, None] + i, gen_i)[:, :, None]
    cubes[:, :, :, 1] = _cube_labels(sys, scale[:, None] + j, gen_j)[:, None, :]
    cubes[:, :, :, 2] = _cube_labels(sys, scale, own)[:, None, None]
    return radius, gen_i, gen_j, cubes


def random_shift(sys: FiniteDyadicSystem, i: int, j: int, seed) -> ShiftSpec:
    """Coefficients uniform on the maximal-radius disk, per-K contractive.

    One draw fills every coefficient's radius and angle fractions in
    (K, I, J, xi, eta, [radius, angle]) order, K by scale and then in
    rank order, I and J in `descendants` order; one batched SVD
    gives the norm of every K block.
    """
    if sys.params.d != 2:
        raise ValueError("shifts are defined on binary systems")
    N = sys.params.depth
    if max(i, j) + 1 > N:
        raise ValueError("window too shallow for this complexity")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dim, n_c = sys.params.dim, sys.n_colors
    radius, gen_i, gen_j, labels = _generations(sys, i, j)
    (n_K, n_I), n_J = gen_i.shape, gen_j.shape[1]
    shape = (n_K, n_I, n_J, n_c, n_c)
    u, v = np.moveaxis(rng.random(shape + (2,)), -1, 0)
    block = np.sqrt(u) * radius[:, None, None, None, None] * np.exp(1j * (2 * np.pi * v))
    # the coefficient bound alone gives contractivity only for dim 1;
    # rescale each K-block so property (1) holds in every dimension.  A
    # block's rows are J by index, then eta; its columns I by index, then xi
    M = block.transpose(0, 2, 4, 1, 3)
    M = np.take_along_axis(M, gen_j.argsort(axis=1)[:, :, None, None, None], axis=1)
    M = np.take_along_axis(M, gen_i.argsort(axis=1)[:, None, None, :, None], axis=3)
    norm = np.linalg.svd(M.reshape(n_K, n_J * n_c, n_I * n_c), compute_uv=False)[:, 0]
    norm = norm[:, None, None, None, None]
    cubes = np.broadcast_to(labels[:, :, :, None, None], shape + labels.shape[3:])
    colors = np.empty(shape + (2,), dtype=np.int64)
    colors[..., 0] = np.arange(1, n_c + 1)[:, None]
    colors[..., 1] = np.arange(1, n_c + 1)
    return ShiftSpec.from_arrays(i, j, dim, cubes.reshape(-1, 3, 1 + dim), colors.reshape(-1, 2),
                                 np.where(norm > 1.0, block / norm, block).ravel())


def _slots(sys: FiniteDyadicSystem, spec: ShiftSpec):
    """(rows, cols, scale, rank): the basis positions of each coefficient's
    (J, eta) and (I, xi), and the scales and ranks of its I, J and K.

    Raises ValueError naming the first entry whose cubes or colours the
    system cannot hold: a Haar cube has a scale in 0..depth-1 and an index
    inside the window, a colour lies in 1..n_colors, and I (J) is a
    generation-i (j) descendant of K in this grid, as the radius assumes.
    """
    N, dim, n_c = sys.params.depth, sys.params.dim, sys.n_colors
    if spec.dim != dim:
        raise ValueError(f"a {spec.dim}-dimensional shift on a {dim}-dimensional system")
    counts = sys.axis_count(np.arange(N))
    scale, index = spec.cubes[:, :, 0], spec.cubes[:, :, 1:]
    fits = (0 <= scale) & (scale < N)
    count = counts[np.where(fits, scale, 0)]
    fits &= np.all((0 <= index) & (index < count[:, :, None]), axis=2)
    fits = fits.all(axis=1) & np.all((1 <= spec.colors) & (spec.colors <= n_c), axis=1)
    if not fits.all():
        n = int(fits.argmin())
        raise ValueError(f"entry {spec.entry(n)} has a cube or colour the system cannot hold "
                         f"(Haar scales 0..{N - 1}, colours 1..{n_c})")
    rank = sys.cube_rank(scale, np.moveaxis(index, -1, 0))  # (entry, [I, J, K])
    inside = (scale[:, :2] == scale[:, 2:] + [spec.i, spec.j]).all(axis=1)
    for k in np.unique(scale[inside, 2]).tolist():
        at = np.flatnonzero(inside & (scale[:, 2] == k))
        for g, col in ((spec.i, 0), (spec.j, 1)):
            inside[at] &= (sys.descendants(k, g)[rank[at, 2]] == rank[at, col, None]).any(axis=1)
    if not inside.all():
        n = int(inside.argmin())
        raise ValueError(f"entry {spec.entry(n)} has an I or J that is not a generation-"
                         f"{spec.i} or generation-{spec.j} descendant of its K in the system")
    pos = sys.slot(scale[:, :2], rank[:, :2], spec.colors)
    return pos[:, 1], pos[:, 0], scale, rank


def assemble_shift(sys: FiniteDyadicSystem, spec: ShiftSpec, blockdim: int = 1) -> np.ndarray:
    return _place(sys, _slots(sys, spec)[:2], spec.values, blockdim)


def _place(sys, slots, values, blockdim):
    """The shift matrix with `values` at the (rows, cols) `slots`, Kronecker with I_blockdim."""
    S = np.zeros((sys.dim_basis, sys.dim_basis), dtype=complex)
    np.add.at(S, slots, values)
    return np.kron(S, np.eye(blockdim)) if blockdim > 1 else S


def phi_blocks(sys: FiniteDyadicSystem, spec: ShiftSpec, b: Symbol):
    """Return (Phi = [S, R_b], {K: (rows, cols, B_K)}) with B_K built independently.

    B_K, a(I, J, K) times b's mean on I less its mean on J, lives on Phi's
    rows of K's generation-j slots and columns of its generation-i slots
    (cubes in `descendants` order, then colours, then the block index).  A
    cube has one ancestor per generation: distinct K share no row or column.
    """
    m = b.blockdim
    rows, cols, scale, rank = _slots(sys, spec)
    S = _place(sys, (rows, cols), spec.values, m)
    R = r_op(sys, b)
    phi = S @ R - R @ S
    if not len(spec.values):
        return phi, {}

    means = sys.cube_means(b.blocks)
    start = np.cumsum([0] + [len(x) for x in means])  # of each scale in the stacked means
    avg = np.concatenate(means)[start[scale[:, :2]] + rank[:, :2]]
    terms = spec.values[:, None, None] * (avg[:, 0] - avg[:, 1])

    _, first, owner = np.unique(spec.cubes[:, 2], axis=0, return_index=True, return_inverse=True)
    owner = owner.reshape(-1)
    # each K's generation-j (row) and generation-i (column) slots, and the
    # place of every coefficient's J and I in its K's lists
    support, place, band = [], [], np.arange(m)
    for g, slot in ((spec.j, rows), (spec.i, cols)):
        slots = np.stack([sys.haar_slots(k + g)[sys.descendants(k, g)[r]].ravel()
                          for k, r in zip(scale[first, 2].tolist(), rank[first, 2].tolist())])
        local = np.zeros(sys.dim_basis, dtype=np.int64)
        local[slots] = np.arange(slots.shape[1])
        place.append(local[slot] * m)
        support.append((slots[:, :, None] * m + band).reshape(len(first), -1))
    B = np.zeros((len(first),) + tuple(a.shape[1] for a in support), dtype=complex)
    np.add.at(B, (owner[:, None, None], place[0][:, None, None] + band[:, None],
                  place[1][:, None, None] + band), terms)
    # one block per K, in the order the Ks first appear
    return phi, {spec.entry(n)[2]: (support[0][owner[n]], support[1][owner[n]], B[owner[n]])
                 for n in np.sort(first)}


def commutator_growth_sweep(sys, b: Symbol, p_values, ij_values, seeds):
    """Rows of (i, j, seed, p, commutator norm, Besov norm, ratio), p by p.

    Each commutator [S, M_b] is assembled and decomposed once for all of
    `p_values`, and so are the Haar blocks of b.
    """
    from .norms import besov_haars
    from .spectral import schatten_norms

    M = mult_op(sys, b)
    by_shift = {}
    for (i, j) in ij_values:
        for seed in seeds:
            spec = random_shift(sys, i, j, seed)
            S = assemble_shift(sys, spec, b.blockdim)
            by_shift[i, j, seed] = schatten_norms(S @ M - M @ S, p_values, blockdim=b.blockdim)
    rows = []
    for k, (p, besov) in enumerate(zip(p_values, besov_haars(sys, b, p_values))):
        for (i, j) in ij_values:
            for seed in seeds:
                norm = by_shift[i, j, seed][k]
                rows.append(
                    {
                        "i": i,
                        "j": j,
                        "seed": seed,
                        "p": p,
                        "norm": norm,
                        "besov": besov,
                        "ratio": norm / besov if besov else np.nan,
                    }
                )
    return rows


def averaged_shift_cell_matrix(params, i, j):
    """Mean over all grid shifts of a maximal shift with relative phases, as a cell matrix.

    On each grid the coefficient of (I, J, K) has the largest allowed
    magnitude and the phase exp(2 pi i (n / 2^i + m / 2^(j+1))), where I is
    the n-th and J the m-th cube of its generation in `descendants` order.
    In one dimension that cube starts n|I| (m|J|) after K, cyclically, in
    every shifted grid, so the phase depends only on relative positions.
    """
    if params.dim != 1 or params.d != 2:
        raise ValueError("the averaging harness is one-dimensional binary")
    N = params.depth
    n_cells = 2**N
    acc = np.zeros((n_cells, n_cells), dtype=complex)
    phase = 2j * np.pi * (np.arange(2**i)[:, None] / 2**i + np.arange(2**j) / (2 * 2**j))
    for word in range(2**N):
        sysw = FiniteDyadicSystem(params, GridShift(tuple((word >> s) & 1 for s in range(N))))
        radius, _, _, cubes = _generations(sysw, i, j)
        values = radius[:, None, None] * np.exp(phase)
        spec = ShiftSpec.from_arrays(i, j, 1, cubes.reshape(-1, 3, 2),
                                     np.ones((values.size, 2)), values.ravel())
        S = assemble_shift(sysw, spec)
        # B S B^H = B (B S^H)^H; the cell measure is applied once at the end
        H = sysw.basis_matrix
        acc += _table_product(H, _table_product(H, S.conj().T).conj().T)
    return acc / (2**N * n_cells)

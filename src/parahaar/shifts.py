"""Dyadic shifts of complexity (i, j) on binary systems.

A shift couples, inside every cube K, the Haar coordinates of the i-th
generation of K to those of the j-th, with coefficients bounded by
sqrt(|I||J|)/|K|.  Only cubes whose both generations fit inside the window
carry coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .dyadic import CubeId, FiniteDyadicSystem, HaarIndex
from .paraproducts import Symbol, mult_op, r_op

__all__ = [
    "ShiftSpec",
    "coefficient_radius",
    "random_shift",
    "assemble_shift",
    "phi_blocks",
    "commutator_growth_sweep",
    "averaged_shift_cell_matrix",
    "phase_rule",
]


def coefficient_radius(dim: int, i: int, j: int, k_scale: int) -> float:
    """sqrt(|I||J|)/|K| for I, J at generations i, j below a scale-k cube."""
    d_eff = 2**dim
    size_k = float(d_eff) ** (-k_scale)
    return float(np.sqrt(d_eff ** (-(k_scale + i)) * d_eff ** (-(k_scale + j))) / size_k)


@dataclass
class ShiftSpec:
    i: int
    j: int
    dim: int
    coeffs: Dict[Tuple[CubeId, CubeId, CubeId, int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        for (I, J, K, xi, eta), a in self.coeffs.items():
            bound = coefficient_radius(self.dim, self.i, self.j, K.scale)
            if abs(a) > bound * (1 + 1e-12):
                raise ValueError(
                    f"coefficient {abs(a):.6g} exceeds bound {bound:.6g} at K={K}"
                )


def _generation(sys: FiniteDyadicSystem, cube: CubeId, g: int):
    level = [cube]
    for _ in range(g):
        level = [kid for c in level for kid in sys.children(c)]
    return level


def random_shift(sys: FiniteDyadicSystem, i: int, j: int, seed) -> ShiftSpec:
    """Coefficients uniform on the maximal-radius disk, per-K contractive."""
    if sys.params.d != 2:
        raise ValueError("shifts are defined on binary systems")
    N = sys.params.depth
    if max(i, j) + 1 > N:
        raise ValueError("window too shallow for this complexity")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dim = sys.params.dim
    coeffs = {}
    for k in range(0, N - max(i, j)):
        for K in sys.cubes_by_scale[k]:
            gen_i = _generation(sys, K, i)
            gen_j = _generation(sys, K, j)
            bound = coefficient_radius(dim, i, j, k)
            block = {}
            for I in gen_i:
                for J in gen_j:
                    for xi in range(1, sys.n_colors + 1):
                        for eta in range(1, sys.n_colors + 1):
                            r = np.sqrt(rng.uniform(0.0, 1.0)) * bound
                            phi = rng.uniform(0.0, 2 * np.pi)
                            block[(I, J, K, xi, eta)] = r * np.exp(1j * phi)
            # the coefficient bound alone gives contractivity only for dim 1;
            # rescale the K-block so property (1) holds in every dimension
            rows = {key[1] for key in block}
            cols = {key[0] for key in block}
            rpos = {(J, eta): a for a, (J, eta) in enumerate(
                (J, eta) for J in sorted(rows, key=lambda c: c.index) for eta in range(1, sys.n_colors + 1))}
            cpos = {(I, xi): a for a, (I, xi) in enumerate(
                (I, xi) for I in sorted(cols, key=lambda c: c.index) for xi in range(1, sys.n_colors + 1))}
            M = np.zeros((len(rpos), len(cpos)), dtype=complex)
            for (I, J, K2, xi, eta), a in block.items():
                M[rpos[(J, eta)], cpos[(I, xi)]] = a
            norm = np.linalg.svd(M, compute_uv=False)[0]
            if norm > 1.0:
                block = {key: a / norm for key, a in block.items()}
            coeffs.update(block)
    return ShiftSpec(i, j, dim, coeffs)


def assemble_shift(sys: FiniteDyadicSystem, spec: ShiftSpec, blockdim: int = 1) -> np.ndarray:
    D = sys.dim_basis
    S = np.zeros((D, D), dtype=complex)
    for (I, J, K, xi, eta), a in spec.coeffs.items():
        S[sys.haar_pos[HaarIndex(J, eta)], sys.haar_pos[HaarIndex(I, xi)]] += a
    if blockdim > 1:
        S = np.kron(S, np.eye(blockdim))
    return S


def phi_blocks(sys: FiniteDyadicSystem, spec: ShiftSpec, b: Symbol):
    """Return (Phi = [S, R_b], {K: B_K}) with B_K built independently."""
    m = b.blockdim
    S = assemble_shift(sys, spec, m)
    R = r_op(sys, b)
    phi = S @ R - R @ S

    f = b.function()
    avg = {}

    def cube_avg(c):
        if c not in avg:
            cells = sys.cells_of(c)
            avg[c] = f.values[cells].mean(axis=0)
        return avg[c]

    D = sys.dim_basis
    blocks = {}
    for (I, J, K, xi, eta), a in spec.coeffs.items():
        B = blocks.setdefault(K, np.zeros((D * m, D * m), dtype=complex))
        row = sys.haar_pos[HaarIndex(J, eta)]
        col = sys.haar_pos[HaarIndex(I, xi)]
        B[row * m:(row + 1) * m, col * m:(col + 1) * m] += a * (cube_avg(I) - cube_avg(J))
    return phi, blocks


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


def phase_rule(sys, I, J, K):
    """Maximal-magnitude coefficient depending only on relative positions."""
    start = lambda c: (c.index[0] * (sys.axis_cells // sys._axis_count(c.scale))
                       + sys._axis_offset[0, c.scale]) % sys.axis_cells
    per_i = sys.axis_cells // sys._axis_count(I.scale)
    per_j = sys.axis_cells // sys._axis_count(J.scale)
    rel_i = ((start(I) - start(K)) % sys.axis_cells) // per_i
    rel_j = ((start(J) - start(K)) % sys.axis_cells) // per_j
    bound = coefficient_radius(sys.params.dim, I.scale - K.scale, J.scale - K.scale, K.scale)
    n_i = 2 ** (I.scale - K.scale)
    n_j = 2 ** (J.scale - K.scale)
    return bound * np.exp(2j * np.pi * (rel_i / n_i + rel_j / (2 * n_j)))


def averaged_shift_cell_matrix(params, i, j):
    """Mean over all grid shifts of the phase_rule-built shift, as a cell matrix."""
    from .dyadic import FiniteDyadicSystem, GridShift

    if params.dim != 1 or params.d != 2:
        raise ValueError("the averaging harness is one-dimensional binary")
    N = params.depth
    n_cells = 2**N
    acc = np.zeros((n_cells, n_cells), dtype=complex)
    count = 0
    for word in range(2**N):
        omega = tuple((word >> s) & 1 for s in range(N))
        sysw = FiniteDyadicSystem(params, GridShift(omega))
        coeffs = {}
        for k in range(0, N - max(i, j)):
            for K in sysw.cubes_by_scale[k]:
                for I in _generation(sysw, K, i):
                    for J in _generation(sysw, K, j):
                        coeffs[(I, J, K, 1, 1)] = phase_rule(sysw, I, J, K)
        S = assemble_shift(sysw, ShiftSpec(i, j, 1, coeffs))
        acc += sysw.basis_matrix @ S @ sysw.analysis_matrix
        count += 1
    return acc / count

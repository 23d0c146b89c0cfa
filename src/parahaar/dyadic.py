"""Finite d-adic systems on the unit cube.

A system enumerates the cubes of scales 0..N on [0,1)^dim, carries the Haar
wavelet basis (coarse indicator + one wavelet per cube/color), conditional
expectations and martingale differences, optional per-scale binary grid
shifts (realized cyclically on the finest cells, which keeps every parent the
exact union of its children), and the shifted-grid covering family.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DyadicParams",
    "CubeId",
    "HaarIndex",
    "StepFunction",
    "GridShift",
    "FiniteDyadicSystem",
    "build_system",
    "haar_function",
    "expectation",
    "martingale_difference",
    "cover_cube",
    "LENGTH_RATIO_BOUND",
    "DILATION_BOUND",
]

# Covering constants for the per-coordinate one-third-shift family in any
# dimension: the returned cube never exceeds 6x the side of the input, and sits
# inside the 11-fold concentric dilation (6x side + worst-case off-centering).
LENGTH_RATIO_BOUND = 6.0
DILATION_BOUND = 11.0


def _is_integer(x) -> bool:
    """An int or numpy integer, not a bool: what a scale, index or colour may be."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _integer_field(name, value, lo=None, hi=None) -> int:
    """`value` as an int, the one rule for an integer argument: ValueError
    naming it for a float, bool or other, and for an int below `lo` or above
    `hi` (each bound optional; `hi` only with `lo`)."""
    if _is_integer(value) and (lo is None or lo <= value) and (hi is None or value <= hi):
        return operator.index(value)
    rule = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    raise ValueError(f"{name} must be an integer{rule}, got {value!r}")


@dataclass(frozen=True)
class DyadicParams:
    d: int
    depth: int
    dim: int = 1

    def __post_init__(self):
        for name, lo in (("d", 2), ("depth", 1), ("dim", 1)):
            object.__setattr__(self, name, _integer_field(name, getattr(self, name), lo))
        if self.dim > 1 and self.d != 2:
            raise ValueError("dim > 1 requires per-coordinate branching d = 2")


@dataclass(frozen=True)
class CubeId:
    scale: int
    index: tuple

    def __post_init__(self):
        if not isinstance(self.index, tuple):
            object.__setattr__(self, "index", tuple(self.index))


@dataclass(frozen=True)
class HaarIndex:
    cube: CubeId
    color: int


class StepFunction:
    """Block-valued step function on the finest cells; values shape (cells, m, m)."""

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None, None]
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValueError("values must be (cells,) or (cells, m, m)")
        self.values = values

    @property
    def blockdim(self):
        return self.values.shape[1]

    @property
    def n_cells(self):
        return self.values.shape[0]

    def scalar(self):
        if self.blockdim != 1:
            raise ValueError("not a scalar step function")
        return self.values[:, 0, 0]

    def __sub__(self, other):
        return StepFunction(self.values - other.values)


@dataclass(frozen=True)
class GridShift:
    """Per-scale binary shift digits; omega[s] is a dim-bit mask for scale s."""

    omega: tuple

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(_integer_field(f"omega[{s}]", w)
                                                for s, w in enumerate(self.omega)))

    @staticmethod
    def random(depth, dim, rng):
        return GridShift(tuple(int(rng.integers(0, 2**dim)) for _ in range(depth)))


class FiniteDyadicSystem:
    """The cubes, cells and Haar basis of one window, numbered by index arithmetic.

    A scale-k cube's rank is `cube_rank` of its index (inverse `cube_index`),
    its wavelet of colour c sits at basis position `slot(k, rank, c)`, and row
    `rank` of the read-only `cells_by_scale[k]` holds its sorted cells, read
    off the children `descendants(k, 1)`.  Only these methods write the
    numbering down, `descendants` alone the shift, and the build makes
    arrays alone: the labels `cubes_by_scale` and `haar_indices` are built
    on first read, and `position` takes a wavelet label to its slot.
    """

    def __init__(self, params: DyadicParams, shift: Optional[GridShift] = None):
        self.params = params
        d, N, dim = params.d, params.depth, params.dim
        if shift is not None:
            if d != 2:
                raise ValueError("grid shifts are defined for binary systems only")
            if len(shift.omega) != N:
                raise ValueError(
                    f"shift needs one digit per scale 0..{N-1}, got {len(shift.omega)}"
                )
            for s, w in enumerate(shift.omega):
                _integer_field(f"omega[{s}]", w, 0, 2**dim - 1)  # a dim-bit mask
        self.shift = shift
        self.d_eff = d if dim == 1 else 2**dim
        self.n_colors = (d - 1) if dim == 1 else 2**dim - 1
        self.axis_cells = d**N if dim == 1 else 2**N
        self.n_cells = self.d_eff**N
        self.cell_measure = 1.0 / self.n_cells

        # per axis, the shift digit of each scale 0..N-1, read by `descendants` alone
        omega = np.array(shift.omega if shift is not None else [0] * N, dtype=np.int64)
        self._digits = (omega >> np.arange(dim)[:, None]) & 1
        self._descendants = {}

        # cell ids sum_t (axis-t cell) * axis_cells**t, in the narrowest signed
        # dtype of at least 32 bits that holds them.  A finest cube is one
        # cell, its rank its index read in C order; a coarser cube's cells
        # are its children's, sorted
        dtype = np.promote_types(np.int32, np.min_scalar_type(1 - self.n_cells))
        ids = np.arange(self.n_cells, dtype=dtype).reshape((self.axis_cells,) * dim)
        tables = [ids.T.reshape(-1, 1)]
        for k in range(N - 1, -1, -1):
            kids = tables[-1][self.descendants(k, 1)]  # (cube, child, cell)
            tables.append(np.sort(kids.reshape(len(kids), -1), axis=1))
        for cells in tables:
            cells.flags.writeable = False
        self.cells_by_scale = tuple(tables[::-1])

        sizes = [1] + [self.n_colors * len(c) for c in self.cells_by_scale[:N]]  # coarse first
        self._first_slot = np.cumsum(sizes)  # of each scale's Haar slots; scale N's is dim_basis
        self.dim_basis = int(self._first_slot[N])
        self._scale_of_row = np.repeat(np.arange(-1, N), sizes)
        self._scale_of_row.flags.writeable = False

        self._cubes = None
        self._haar = None
        self._basis = None
        self._averages = None
        # the `child_values` tables: the phase rule once, times each scale's amplitude
        phases = np.empty((self.d_eff, self.n_colors), dtype=complex)
        for q, color in itertools.product(range(self.d_eff), range(1, self.n_colors + 1)):
            if dim > 1:
                phase = -1.0 if bin(q & color).count("1") % 2 else 1.0
            else:
                rot = (color * (q + 1)) % d
                if 2 * rot % d == 0:
                    phase = 1.0 if rot == 0 else -1.0  # exact for half turns
                else:
                    phase = np.exp(2j * np.pi * rot / d)
            phases[q, color - 1] = phase
        if not phases.imag.any():
            phases = phases.real
        self._tables = tuple(phases * (d ** (k / 2.0) if dim == 1 else 2.0 ** (k * dim / 2.0))
                             for k in range(N))
        for table in self._tables:
            table.flags.writeable = False

    @property
    def cubes_by_scale(self):
        """Per scale 0..N, the cube labels in rank order; built on first read."""
        if self._cubes is None:
            self._cubes = tuple(tuple(CubeId(k, self.cube_index(k, r)) for r in range(len(cells)))
                                for k, cells in enumerate(self.cells_by_scale))
        return self._cubes

    @property
    def haar_indices(self):
        """The wavelet labels, `haar_indices[r]` at basis position 1 + r; built on first read."""
        if self._haar is None:
            colors = range(1, self.n_colors + 1)
            self._haar = tuple(HaarIndex(cube, color) for cubes in self.cubes_by_scale[:-1]
                               for cube in cubes for color in colors)
        return self._haar

    def axis_count(self, scale):
        """Cubes per axis at `scale`, an int or an integer array."""
        return (self.params.d if self.params.dim == 1 else 2) ** scale

    def cube_rank(self, scale, index):
        """Position of the cube (scale, index) in `cubes_by_scale[scale]`: its
        index read in C order.  `index` holds one entry per axis, ints or
        integer arrays (a (dim, ...) array works); nothing is validated."""
        count = self.axis_count(scale)
        rank = 0
        for i in index:
            rank = rank * count + i
        return rank

    def cube_index(self, scale, rank):
        """Inverse of `cube_rank`: the per-axis indices of `rank`, as a tuple."""
        count = self.axis_count(scale)
        index = []
        for _ in range(self.params.dim):  # C order, last axis fastest
            index.insert(0, rank % count)
            rank = rank // count
        return tuple(index)

    def slot(self, scale, rank, color):
        """Basis position of the colour-`color` wavelet of the cube (scale, rank):
        the scale's first slot + n_colors * rank + color - 1."""
        return self._first_slot[scale] + self.n_colors * rank + color - 1

    def _rank(self, cube: CubeId):
        """`cube_rank` of a cube label; KeyError naming a label the window lacks."""
        if not (isinstance(cube, CubeId) and _is_integer(cube.scale)
                and 0 <= cube.scale <= self.params.depth and len(cube.index) == self.params.dim
                and all(_is_integer(i) and 0 <= i < self.axis_count(cube.scale)
                        for i in cube.index)):
            raise KeyError(f"{cube} is not a cube of the system")
        return self.cube_rank(cube.scale, cube.index)

    def position(self, h: HaarIndex) -> int:
        """Basis position of the wavelet label h, `slot` of its cube's rank and
        colour; KeyError naming a label the window lacks."""
        if isinstance(h, HaarIndex):
            rank = self._rank(h.cube)
            if (h.cube.scale < self.params.depth and _is_integer(h.color)
                    and 1 <= h.color <= self.n_colors):
                return int(self.slot(h.cube.scale, rank, h.color))
        raise KeyError(f"{h} is not an index of the system")

    def cells_of(self, cube: CubeId):
        rank = self._rank(cube)
        return self.cells_by_scale[cube.scale][rank]

    def scale_measure(self, k):
        """|Q| = d_eff^{-k} of every scale-k cube, as a float."""
        return float(self.d_eff ** -operator.index(k))

    def measure(self, cube: CubeId):
        self._rank(cube)  # KeyError for a label outside the window
        return self.scale_measure(cube.scale)

    def children(self, cube: CubeId):
        """Children in canonical order (Haar child q / bitmask beta order)."""
        rank, k = self._rank(cube), cube.scale
        if k == self.params.depth:
            raise ValueError("finest cubes have no children")
        return [CubeId(k + 1, self.cube_index(k + 1, r))
                for r in self.descendants(k, 1)[rank].tolist()]

    def descendants(self, k: int, g: int):
        """Generation-g descendants of every scale-k cube, as (n_k, d_eff**g) ranks.

        Row r lists the positions in `cubes_by_scale[k + g]` of the
        descendants of `cubes_by_scale[k][r]`, in the order `children` lists
        them: on each axis t, child q of index i sits at base * i + the
        scale's shift digit + digit t of q in base `base`, modulo the axis
        count.  This is the one place the shift is written: the g = 1 tables
        are built with the system, which reads its cell tables off them, and
        the others on first use.  Every table is kept; read-only.
        """
        if not (0 <= k and 0 <= g and k + g <= self.params.depth):
            raise ValueError(f"generation {g} below scale {k} leaves the window")
        table = self._descendants.get((k, g))
        if table is None:
            n = self.d_eff**k
            if g == 0:
                table = np.arange(n)[:, None]
            elif g == 1:
                base = self.axis_count(1)
                q = np.arange(self.d_eff) // base ** np.arange(self.params.dim)[:, None] % base
                index = np.array(self.cube_index(k, np.arange(n)))[:, :, None]
                kids = base * index + self._digits[:, k, None, None] + q[:, None, :]
                table = self.cube_rank(k + 1, kids % self.axis_count(k + 1))
            else:
                table = self.descendants(k + g - 1, 1)[self.descendants(k, g - 1)]
                table = table.reshape(n, -1)
            table.flags.writeable = False
            self._descendants[k, g] = table
        return table

    def child_values(self, k):
        """(d_eff, n_colors) values of every scale-k wavelet on the children of
        its cube, in `descendants` order: the amplitude |I|^{-1/2} times the
        colour's phase on the child, a d-th root of unity in one dimension and
        the sign (-1)^{|beta & colour|} on child beta in several.  The one
        per-scale wavelet table, built with the system and read-only: float64
        where every phase is real (d = 2, any dim), complex128 otherwise."""
        return self._tables[k]

    def haar_values(self, h: HaarIndex):
        """Cell values of the wavelet h (unit L2 norm, zero mean)."""
        color = _integer_field("color", h.color, 1, self.n_colors)
        rank, k = self._rank(h.cube), h.cube.scale
        if k == self.params.depth:
            raise ValueError("Haar cubes live at scales 0..N-1")
        vals = np.zeros(self.n_cells, dtype=complex)
        kids = self.cells_by_scale[k + 1][self.descendants(k, 1)[rank]]  # (child, cell)
        vals[kids] = self.child_values(k)[:, color - 1, None]
        return vals

    @property
    def basis_matrix(self):
        """Columns = basis step functions on cells (coarse first, then Haar),
        written one scale at a time from `child_values`, with their dtype.

        A read-only oracle, built on first read by the four oracles that
        compare against it (`checks.check_orthonormality`, `cube_average_matrix`,
        `paraproducts.mult_op`, `shifts.averaged_shift_cell_matrix`);
        every other operator and transform walks the tree.
        """
        if self._basis is None:
            B = np.zeros((self.n_cells, self.dim_basis), dtype=self._tables[0].dtype)
            B[:, 0] = 1.0
            for k, table in enumerate(self._tables):
                kids = self.cells_by_scale[k + 1][self.descendants(k, 1)]  # (cube, child, cell)
                B[kids[..., None], self.haar_slots(k)[:, None, None, :]] = table[:, None, :]
            B.flags.writeable = False
            self._basis = B
        return self._basis

    @property
    def cube_averages(self):
        """(rows, cols, values): the nonzero cube averages of the basis, flat.

        Entry n says that the mean over the cube of the Haar slot rows[n] of
        the basis function in slot cols[n] is values[n]; every other mean is
        an exact 0.  The nonzero ones sit on each cube I's tree support: the
        coarse slot (mean 1) and the wavelets of I's strict ancestors, each
        constant on I, so its mean is that constant.  A row's entries are
        consecutive: the coarse slot, then each ancestor's n_colors slots in
        colour order, coarsest ancestor first.  They are written down
        the tree from `child_values`: a cube's values are its parent's plus
        the parent's wavelet values on that child.  Per scale s the table
        holds n_s * n_colors * (1 + s n_colors) entries, O(D N n_colors) in
        all; no D x D array is built.  The slots are int64 and the values
        have `basis_matrix`'s dtype.  Built once per system; read-only.
        """
        if self._averages is None:
            above = np.ones((1, 1), dtype=self._tables[0].dtype)
            parts = []
            for s, (slots, support) in enumerate(self.supports()):
                n_q, width = support.shape
                shape = (n_q, self.n_colors, width)  # rows repeat across a cube's colours
                parts.append([np.broadcast_to(a, shape).ravel() for a in
                              (slots[:, :, None], support[:, None, :], above[:, None, :])])
                below = np.empty((n_q * self.d_eff, width + self.n_colors), dtype=above.dtype)
                below[self.descendants(s, 1)] = np.concatenate(
                    [np.broadcast_to(above[:, None, :], (n_q, self.d_eff, width)),
                     np.broadcast_to(self._tables[s], (n_q,) + self._tables[s].shape)], axis=2)
                above = below
            table = tuple(np.concatenate(columns) for columns in zip(*parts))
            for a in table:
                a.flags.writeable = False
            self._averages = table
        return self._averages

    @property
    def cube_average_matrix(self):
        """avg[r, beta] = mean over Haar cube r of basis function beta; the
        dense oracle of `cube_averages`, built from `basis_matrix` gathers on
        every read and never kept.

        One row per Haar index; rows repeat across the colors of one cube.
        The mean over a cube I of a basis function is nonzero only on I's
        tree support: the coarse slot and the wavelets of I's strict
        ancestors, each constant on I.  A wavelet of I itself or of a
        subcube has mean zero on I, and one of a disjoint cube vanishes on
        I, so every other entry is set to an exact 0 rather than left as
        the roundoff of a dense mean.  The support entries are dense means
        `B[cells, support].mean(axis=0)` over I's cells, which the constants
        of `cube_averages` equal to within rounding.  Same dtype as
        `basis_matrix`; read-only.
        """
        B = self.basis_matrix
        A = np.zeros((self.dim_basis - 1, self.dim_basis), dtype=B.dtype)
        for cells, (slots, support) in zip(self.cells_by_scale, self.supports()):
            means = B[cells[:, :, None], support[:, None, :]].mean(axis=1)
            A[slots[:, :, None] - 1, support[:, None, :]] = means[:, None, :]
        A.flags.writeable = False
        return A

    def haar_slots(self, k):
        """(n_k, n_colors) basis positions of the scale-k wavelets, row r those
        of the cube of rank r: the range of slots the scale occupies."""
        return np.arange(self._first_slot[k], self._first_slot[k + 1]).reshape(-1, self.n_colors)

    def supports(self):
        """Per scale s = 0..N-1, (slots, support) of the scale-s cubes in rank
        order: slots is `haar_slots(s)`, and support (n_s, 1 + s n_colors)
        holds the coarse slot and the slots of the cube's strict ancestors,
        coarsest first, the support of every function constant on the cube.
        One walk down `descendants`, each child's support its parent's plus
        the parent's slots; int64, made afresh on each walk.
        """
        support = np.zeros((1, 1), dtype=np.int64)
        for s in range(self.params.depth):
            slots = self.haar_slots(s)
            yield slots, support
            below = np.empty((len(slots) * self.d_eff, support.shape[1] + self.n_colors), np.int64)
            below[self.descendants(s, 1)] = np.concatenate([support, slots], axis=1)[:, None, :]
            support = below

    def scale_of_row(self):
        """Cube scale per basis position; -1 for the coarse slot (read-only)."""
        return self._scale_of_row

    def cube_means(self, coeffs):
        """Per scale k = 0..N, the (n_k, m, m) means over the scale-k cubes, in
        rank order, of the function with basis coefficients `coeffs`: one walk
        down the tree from the coarse block, each child's mean its parent's
        plus the parent's `child_values(k)` applied to its colour blocks."""
        coeffs = np.asarray(coeffs, dtype=complex)
        rest, means = coeffs.shape[1:], [coeffs[:1]]
        for k, table in enumerate(self._tables):
            n = len(means[k])
            blocks = coeffs[self._first_slot[k]:self._first_slot[k + 1]].reshape((n, -1) + rest)
            kids = np.empty((n * self.d_eff,) + rest, dtype=complex)
            kids[self.descendants(k, 1).T] = means[k] + _table_product(table, blocks.swapaxes(0, 1))
            means.append(kids)
        return means

    def coeffs(self, f: StepFunction):
        """Basis coefficients, shape (dim_basis, m, m): one walk up the tree, each
        cube's colour blocks its child means through conj(`child_values`) times
        the child measure."""
        _require_cells(self, f)
        means, scales = f.values[self.cells_by_scale[-1][:, 0]], []
        for k, table in reversed(list(enumerate(self._tables))):
            kids = means[self.descendants(k, 1).T]  # (child, cube, m, m); scratch below
            means = kids.mean(axis=0)
            blocks = _table_product(table, kids, adjoint=True) * self.scale_measure(k + 1)
            scales.append(blocks.swapaxes(0, 1).reshape((-1,) + means.shape[1:]))
        return np.concatenate([means] + scales[::-1])

    def synthesize(self, coeffs):
        """The step function of these basis coefficients: scale-N `cube_means` on the cells."""
        means = self.cube_means(coeffs)[-1]
        out = np.empty_like(means)
        out[self.cells_by_scale[-1][:, 0]] = means
        return StepFunction(out)


def _table_product(table, x, adjoint=False):
    """table @ x, or table^H @ x when `adjoint`, over the first axis of x; complex.

    A real table multiplies the float view of x in one real GEMM.  A complex
    one runs one complex GEMM, the adjoint as conj(table^T conj x), which
    conjugates a complex x in place: an adjoint's x is scratch.  No copy of
    the table is made.  The walks `cube_means` and `coeffs` multiply each
    scale's `child_values` with it, the oracles `mult_op` and
    `averaged_shift_cell_matrix` the `basis_matrix`.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    t = table.T if adjoint else table
    flat = x.reshape(len(x), -1)
    out = np.empty((len(t),) + x.shape[1:], dtype=complex)
    out_flat = out.reshape(len(t), -1)
    if not np.iscomplexobj(table):
        np.matmul(t, flat.view(float), out=out_flat.view(float))
    elif not adjoint:
        np.matmul(t, flat, out=out_flat)
    else:
        np.matmul(t, np.conjugate(flat, out=flat), out=out_flat)
        np.conjugate(out, out=out)
    return out


def _require_cells(sys: FiniteDyadicSystem, f: StepFunction):
    """ValueError naming both counts unless f has one value per cell of sys."""
    if f.n_cells != sys.n_cells:
        raise ValueError(f"step function has {f.n_cells} cells, the system {sys.n_cells}")


def build_system(params: DyadicParams, shift: Optional[GridShift] = None):
    return FiniteDyadicSystem(params, shift)


def haar_function(sys: FiniteDyadicSystem, h: HaarIndex) -> StepFunction:
    return StepFunction(sys.haar_values(h))


def expectation(sys: FiniteDyadicSystem, f: StepFunction, k: int) -> StepFunction:
    """Conditional expectation onto scale-k cubes, broadcast to the cells."""
    k = _integer_field("k", k, 0, sys.params.depth)
    _require_cells(sys, f)
    cells = sys.cells_by_scale[k]
    out = np.empty_like(f.values)
    out[cells] = f.values[cells].mean(axis=1, keepdims=True)
    return StepFunction(out)


def martingale_difference(sys: FiniteDyadicSystem, f: StepFunction, k: int) -> StepFunction:
    k = _integer_field("k", k, 1, sys.params.depth)
    return expectation(sys, f, k) - expectation(sys, f, k - 1)


# ---------------------------------------------------------------------------
# Adjacent (one-third shifted) grid family and cube covering.


def _decimal_ratio(x):
    """(numerator, denominator) of x in lowest terms, read as Fraction(str(x))
    reads a float: the decimal that str prints, not the binary value."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    try:
        return Decimal(str(x)).as_integer_ratio()
    except (ArithmeticError, ValueError):
        raise ValueError(f"{x!r} is not a finite number") from None


def _offset_thirds(scale: int) -> int:
    """Thirds of a scale-`scale` cell by which variant 1 of the grid is shifted."""
    return 2 if scale % 2 == 0 else 1


def _offset_at(scale: int, variant: int) -> Fraction:
    if variant == 0:
        return Fraction(0)
    h = Fraction(1, 2**scale) if scale >= 0 else Fraction(2 ** (-scale))
    return Fraction(_offset_thirds(scale), 3) * h


@dataclass(frozen=True)
class CoveringCube:
    grid: int
    scale: int
    index: tuple
    lower: tuple  # Fractions, per axis
    side: Fraction


def cover_cube(lower: Sequence[float], side: float) -> CoveringCube:
    """Smallest cube of the family containing B = prod [lower_t, lower_t+side),
    in dimension len(lower); bit t of its grid number is axis t's variant.

    Guarantees side(Q) <= 6 side(B) and Q inside the 11-fold concentric
    dilation of B; fails loudly if B is not inside the unit window.
    """
    if not len(lower):
        raise ValueError("lower needs one coordinate per axis, got none")
    ratios = [_decimal_ratio(x) for x in lower]
    p, d = _decimal_ratio(side)
    if p <= 0:
        raise ValueError("cube side must be positive")
    # integers over q, the common denominator of the inputs
    q = math.lcm(d, *(den for _, den in ratios))
    starts = [num * (q // den) for num, den in ratios]
    length = p * (q // d)
    if any(x < 0 or x + length > q for x in starts):
        raise ValueError("cube is outside the unit window")

    # largest scale k with 2^-k >= side, then walk upward in cube size; a fit
    # is guaranteed once the cell exceeds 3x the input side
    k = 0
    while q >= length << (k + 1):
        k += 1
    # from here on in units of 1 / (3 2^k q): every cell side and grid offset
    # from scale k up is an integer
    unit = 3 * q << k
    starts = [3 * x << k for x in starts]
    length = 3 * length << k
    # the variants act on each axis on their own, so the fitting grid of
    # lowest number takes, on every axis, the lowest variant that fits there
    for scale in range(k, -5, -1):
        h = 3 * q << (k - scale)
        shift = _offset_thirds(scale) * (q << (k - scale))
        grid, idx, corner = 0, [], []
        for t, x in enumerate(starts):
            for variant, off in ((0, 0), (1, shift)):
                m0 = (x - off) // h
                # B_t fits in cell m0 iff its right endpoint stays inside
                if x + length <= off + (m0 + 1) * h:
                    break
            else:
                break
            grid |= variant << t
            idx.append(m0)
            corner.append(off + m0 * h)
        else:
            return CoveringCube(grid, scale, tuple(idx),
                                tuple(Fraction(c, unit) for c in corner), Fraction(h, unit))
    raise RuntimeError("no covering cube found; input exceeds the supported range")


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


def _integer_field(name, value) -> int:
    """`value` as an int; ValueError naming the field for a float, bool or other."""
    if _is_integer(value):
        return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DyadicParams:
    d: int
    depth: int
    dim: int = 1

    def __post_init__(self):
        for name in ("d", "depth", "dim"):
            object.__setattr__(self, name, _integer_field(name, getattr(self, name)))
        if self.d < 2:
            raise ValueError(f"branching factor must be >= 2, got {self.d}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
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

    def __add__(self, other):
        return StepFunction(self.values + other.values)

    def __sub__(self, other):
        return StepFunction(self.values - other.values)

    def __mul__(self, c):
        return StepFunction(self.values * c)

    __rmul__ = __mul__


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
    `rank` of the read-only `cells_by_scale[k]` holds its sorted cells.  Only
    these methods write the numbering down, and the build makes arrays alone:
    the labels `cubes_by_scale` and `haar_indices` are built on first read,
    and `position` takes a wavelet label to its slot.
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
            if any(w < 0 or w >= 2**dim for w in shift.omega):
                raise ValueError("shift digits must be dim-bit masks")
        self.shift = shift
        self.d_eff = d if dim == 1 else 2**dim
        self.n_colors = (d - 1) if dim == 1 else 2**dim - 1
        self.axis_cells = d**N if dim == 1 else 2**N
        self.n_cells = self.d_eff**N
        self.cell_measure = 1.0 / self.n_cells

        # per axis, the shift digit of each scale 0..N-1 and the offset of
        # each scale's grid in finest cells, sum_{s >= k} digit_s 2^(N-s-1)
        omega = np.array(shift.omega if shift is not None else [0] * N, dtype=np.int64)
        self._digits = (omega >> np.arange(dim)[:, None]) & 1
        step = np.append(self._digits * 2 ** (N - 1 - np.arange(N)), np.zeros((dim, 1), int), 1)
        offset = np.cumsum(step[:, ::-1], axis=1)[:, ::-1]

        # cell ids are computed in int64 and kept in the narrowest signed dtype
        # of at least 32 bits that holds them
        dtype = np.promote_types(np.int32, np.min_scalar_type(1 - self.n_cells))
        tables = []
        for k in range(N + 1):
            count = self.axis_count(k)
            per = self.axis_cells // count
            cells = np.zeros((count,) * dim + (per,) * dim, dtype=np.int64)
            for t in range(dim):  # cell id = sum_t (axis-t cell) * axis_cells**t
                run = np.arange(count)[:, None] * per + np.arange(per) + offset[t, k]
                shape = [1] * (2 * dim)
                shape[t], shape[dim + t] = count, per
                cells += self.axis_cells**t * (run % self.axis_cells).reshape(shape)
            cells = np.sort(cells.reshape(count**dim, per**dim).astype(dtype), axis=1)
            cells.flags.writeable = False
            tables.append(cells)
        self.cells_by_scale = tuple(tables)

        sizes = [1] + [self.n_colors * len(c) for c in tables[:N]]  # coarse first
        self._first_slot = np.cumsum(sizes)  # of each scale's Haar slots; scale N's is dim_basis
        self.dim_basis = int(self._first_slot[N])
        self._scale_of_row = np.repeat(np.arange(-1, N), sizes)
        self._scale_of_row.flags.writeable = False

        self._cubes = None
        self._haar = None
        self._basis = None
        self._averages = None
        self._layouts = None
        self._descendants = {}

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
        count.  Each table is built on first use and kept; read-only.
        """
        if not (0 <= k and 0 <= g and k + g <= self.params.depth):
            raise ValueError(f"generation {g} below scale {k} leaves the window")
        table = self._descendants.get((k, g))
        if table is None:
            n = len(self.cells_by_scale[k])
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
        the sign (-1)^{|beta & colour|} on child beta in several."""
        d, dim = self.params.d, self.params.dim
        amp = d ** (k / 2.0) if dim == 1 else 2.0 ** (k * dim / 2.0)
        table = np.empty((self.d_eff, self.n_colors), dtype=complex)
        for q, color in itertools.product(range(self.d_eff), range(1, self.n_colors + 1)):
            if dim > 1:
                phase = -1.0 if bin(q & color).count("1") % 2 else 1.0
            else:
                rot = (color * (q + 1)) % d
                if 2 * rot % d == 0:
                    phase = 1.0 if rot == 0 else -1.0  # exact for half turns
                else:
                    phase = np.exp(2j * np.pi * rot / d)
            table[q, color - 1] = amp * phase
        return table

    def haar_values(self, h: HaarIndex):
        """Cell values of the wavelet h (unit L2 norm, zero mean)."""
        cube, color = h.cube, h.color
        if not (_is_integer(color) and 1 <= color <= self.n_colors):
            raise ValueError(f"color {color} out of range 1..{self.n_colors}")
        rank, k = self._rank(cube), cube.scale
        if k == self.params.depth:
            raise ValueError("Haar cubes live at scales 0..N-1")
        vals = np.zeros(self.n_cells, dtype=complex)
        kids = self.cells_by_scale[k + 1][self.descendants(k, 1)[rank]]  # (child, cell)
        vals[kids] = self.child_values(k)[:, color - 1, None]
        return vals

    def _table_values(self):
        """`child_values(k)` for k = 0..N-1, each as float64 when every table
        is real (d = 2, any dim: the phases are signs), complex128 otherwise."""
        values = [self.child_values(k) for k in range(self.params.depth)]
        if any(v.imag.any() for v in values):
            return values
        return [v.real for v in values]

    @property
    def basis_matrix(self):
        """Columns = basis step functions on cells (coarse first, then Haar),
        written one scale at a time from `child_values`.

        float64 when every `child_values` table is real (d = 2, any dim: the
        phases are signs), complex128 otherwise; the values are the same
        either way.  Built once per system; read-only.
        """
        if self._basis is None:
            values = self._table_values()
            B = np.zeros((self.n_cells, self.dim_basis), dtype=values[0].dtype)
            B[:, 0] = 1.0
            for k, (_, cols, _) in enumerate(self.scale_layouts):
                kids = self.cells_by_scale[k + 1][self.descendants(k, 1)]  # (cube, child, cell)
                B[kids[..., None], cols[:, None, None, :]] = values[k][:, None, :]
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
        constant on I, so its mean is that constant.  They are written down
        the tree from `child_values`: a cube's values are its parent's plus
        the parent's wavelet values on that child.  Per scale s the table
        holds n_s * n_colors * (1 + s n_colors) entries, O(D N n_colors) in
        all; no D x D array is built.  The slots are int64 and the values
        have `basis_matrix`'s dtype.  Built once per system; read-only.
        """
        if self._averages is None:
            values = self._table_values()
            above = np.ones((1, 1), dtype=values[0].dtype)
            parts = []
            for s, (cells, cols, rows) in enumerate(self.scale_layouts):
                n_q = len(cells)
                width = above.shape[1]  # coarse + strict ancestors of each scale-s cube
                shape = (n_q, self.n_colors, width)  # rows repeat across a cube's colours
                parts.append([np.broadcast_to(a, shape).ravel() for a in
                              (cols[:, :, None], rows[:, None, :width], above[:, None, :])])
                below = np.empty((n_q * self.d_eff, width + self.n_colors), dtype=above.dtype)
                below[self.descendants(s, 1)] = np.concatenate(
                    [np.broadcast_to(above[:, None, :], (n_q, self.d_eff, width)),
                     np.broadcast_to(values[s], (n_q,) + values[s].shape)], axis=2)
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
        for cells, cols, rows in self.scale_layouts:
            support = rows[:, : rows.shape[1] - self.n_colors]  # coarse + strict ancestors
            means = B[cells[:, :, None], support[:, None, :]].mean(axis=1)
            A[cols[:, :, None] - 1, support[:, None, :]] = means[:, None, :]
        A.flags.writeable = False
        return A

    @property
    def scale_layouts(self):
        """Per scale s = 0..N-1, (cells, cols, rows) of the scale-s cubes.

        cells (n_Q, cells per cube) is `cells_by_scale[s]`, cols (n_Q,
        n_colors) the Haar slots of each cube Q, and rows (n_Q, 1 + (s+1)
        n_colors) the coarse slot, the slots of Q's ancestors and Q's own
        slots: the support of every function on Q that is constant on Q's
        children.  Built once per system; the arrays are read-only.
        """
        if self._layouts is None:
            colors = np.arange(1, self.n_colors + 1)
            above = np.zeros((self.n_cells, 1), dtype=np.int64)  # per cell: coarse + ancestors
            layouts = []
            for s in range(self.params.depth):
                cells = self.cells_by_scale[s]
                cols = self.slot(s, np.arange(len(cells))[:, None], colors)
                rows = np.concatenate([above[cells[:, 0]], cols], axis=1)
                for a in (cols, rows):
                    a.flags.writeable = False
                layouts.append((cells, cols, rows))
                own = np.empty((self.n_cells, self.n_colors), dtype=np.int64)
                own[cells] = cols[:, None, :]
                above = np.concatenate([above, own], axis=1)
            self._layouts = tuple(layouts)
        return self._layouts

    def scale_of_row(self):
        """Cube scale per basis position; -1 for the coarse slot (read-only)."""
        return self._scale_of_row

    def coeffs(self, f: StepFunction):
        """Basis coefficients, shape (dim_basis, m, m): B^H (|cell| f)."""
        _require_cells(self, f)
        return _table_product(self.basis_matrix, f.values * self.cell_measure, adjoint=True)

    def synthesize(self, coeffs):
        return StepFunction(_table_product(self.basis_matrix, coeffs))


def _table_product(table, x, adjoint=False):
    """table @ x, or table^H @ x when `adjoint`, over the first axis of x; complex.

    A real table multiplies the float view of x in one real GEMM.  A complex
    one runs one complex GEMM, the adjoint as conj(table^T conj x), which
    conjugates a complex x in place: an adjoint's x is scratch.  No copy of
    the table is made.
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
    if not (0 <= k <= sys.params.depth):
        raise ValueError(f"scale {k} outside 0..{sys.params.depth}")
    _require_cells(sys, f)
    cells = sys.cells_by_scale[k]
    out = np.empty_like(f.values)
    out[cells] = f.values[cells].mean(axis=1, keepdims=True)
    return StepFunction(out)


def martingale_difference(sys: FiniteDyadicSystem, f: StepFunction, k: int) -> StepFunction:
    if not (1 <= k <= sys.params.depth):
        raise ValueError(f"difference scale {k} outside 1..{sys.params.depth}")
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


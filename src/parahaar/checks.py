"""Assertion suites behind `parahaar verify` and the acceptance tests.

Each check returns a record with a stable property slug in `paper_ref`, a
pass flag, and the worst observed residual or ratio.  Exact identities are
held to 1e-12 (scaled where the table below says so); explicit-constant
inequalities allow -1e-10 slack; two-sided equivalences are judged against
the frozen calibration file.

Tolerance model.  Two computations of one quantity in float64 agree within
4 n eps of its natural scale, `model_bound(n, scale)` (eps = 2^-52).  n is
the longest inner sum either one takes: the cells per GEMM row, or the terms
per Besov sum.  The natural scale is the largest entry for an operator,
sum |terms| for a sum, and ||f|| for a function.  This bound is the
contract, not the bits of one implementation: a code path may round
differently as long as it stays inside it, and the tests compare two routes
to within it.  It is the worst case of a sequential sum (Higham, SIAM J.
Sci. Comput. 14(4), 1993); BLAS and numpy's pairwise sums reach about
log2(n) eps.  A fixed absolute 1e-12 is inside the model while
4 n eps x scale <= 1e-12, that is up to n = 1125 at scale 1.

The exact records: the scale each is judged at, the n it sums over, and
whether its fixed tolerance still follows from the model at D = 10^6 (where
n = D for every sum over cells or basis slots; a tree walk's n = N d_eff, d_eff
terms per scale, is below that of the cell route it is compared with):

  record                          scale                         n          at D = 10^6
  haar-orthonormality-parseval    absolute: Gram (1), Parseval  cells      no
                                  (||f||^2), round trip (||f||);
                                  walks vs basis_matrix: model_bound(cells, ||f||)
  haar-product-rule               absolute (|Q|^-1 = d)         1          yes
  filtration-telescoping          absolute (||f||)              cells      no
  adjoint-conjugate-transpose     absolute (largest entry)      cells      no
  triangle-blockdiag-split        max(1, largest entry)         cells      no
  multiplication-decomposition    max(1, largest entry)         cells      no
  band-vanishing                  absolute; masks of one        1          yes
                                  matrix, exact zeros
  rank-piece-orthogonality        absolute; disjoint rows,      1          yes
                                  exact zeros (1e-13)
  commutator-cascade-identities   max(1, |pi_a| |pi_b|)         D          no
  shift-commutator-blocks         max(1, largest entry) (1e-10) D          no
  bmo-two-forms                   max(1, coefficient form)      cells      no
  paraproduct-core-spectrum       model_bound(D m, sigma_max)   D m        yes: the model's own
                                  per singular value
  paraproduct-trace-norms         model_bound(D m, S_p), p = 2  D m        yes: the model's own
                                  and 4; S_2 also against B_2
  p2-exact-relation               absolute (1e-10)              D          no
  car-relations                   absolute (unit entries)       side <= 4  yes: no D
  tensor-word-products            absolute (unit entries)       side <= 8  yes: no D
  car-zero-pattern                exact zeros (0.0)             1          yes
  weak-factorization              absolute (||f||)              cells      no
  shift-average-equivariance      absolute (1e-10)              cells      no
  shift-coefficient-bound         each radius (1 + 1e-12)       1          yes

"no" means only that the model no longer implies the fixed tolerance: a
deep suite must judge those records at model_bound(D, scale), stated before
it runs.  Tolerances change only with a record in CHANGES.md, never to make
a failing check pass.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import algebras, kernels, median, norms, shifts, spectral
from .dyadic import (CubeId, DyadicParams, GridShift, HaarIndex, StepFunction,
                     build_system, cover_cube, expectation, martingale_difference,
                     DILATION_BOUND, LENGTH_RATIO_BOUND)
from .paraproducts import (Symbol, band, commutator_pieces, cube_grams,
                           decompose, paraproduct, adjoint_paraproduct, paraproduct_core, r_op,
                           random_symbol, rank_piece, splitting, subtree_sums, triangle_op,
                           triangle_tilde)
from .spectral import _lp, _padded_schatten_norms, _require_positive

EXACT_TOL = 1e-12
SLACK = 1e-10


@dataclass
class CheckRecord:
    name: str
    paper_ref: str
    passed: bool
    worst: float
    detail: str = ""

    def __post_init__(self):  # plain Python values: json cannot write a numpy bool
        self.passed, self.worst = bool(self.passed), float(self.worst)

    def as_dict(self):
        return {"name": self.name, "paper_ref": self.paper_ref,
                "pass": self.passed, "worst": self.worst, "detail": self.detail}


def model_bound(n, scale):
    """The tolerance model's bound on two computations of one quantity: 4 n eps
    times its natural scale, n the longest inner sum either one takes."""
    return 4 * n * np.finfo(float).eps * scale


def _rec(name, ref, worst, bound, detail=""):
    return CheckRecord(name, ref, worst <= bound, worst, detail)


def _read_calibration(path):
    if path is not None:
        with open(path) as fh:
            return json.load(fh)
    with resources.files("parahaar").joinpath("calibration.json").open() as fh:
        return json.load(fh)


def _positive(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and 0 < x < math.inf


def _shape_error(key, value, shape):
    """Why `value` under `key` does not have the `shape` of the packaged value
    with finite positive numbers; None if it does."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return f"key {key!r} must be an object, got {json.dumps(value)}"
        for sub in sorted(shape.keys() | value.keys()):
            if sub not in value or sub not in shape:
                return f"key '{key}/{sub}' is {'missing' if sub in shape else 'unknown'}"
            why = _shape_error(f"{key}/{sub}", value[sub], shape[sub])
            if why:
                return why
        return None
    if isinstance(shape, list):
        if (isinstance(value, list) and len(value) == 2 and all(map(_positive, value))
                and value[0] <= value[1]):
            return None
        return f"key {key!r} must be [lo, hi] with 0 < lo <= hi, got {json.dumps(value)}"
    if _positive(value):
        return None
    return f"key {key!r} must be a finite number > 0, got {json.dumps(value)}"


def _calibration_error(calib):
    """Why `calibrated_suite` cannot judge against `calib`, naming the first bad
    key of the CALIBRATED table; None if it can."""
    if not isinstance(calib, dict):
        return f"file must hold a JSON object, got a {type(calib).__name__}"
    packaged = _read_calibration(None)
    for _, _, margin_key, _, keys in CALIBRATED:
        for key in (margin_key, *keys):
            if key not in calib:
                return f"key {key!r} is missing"
        margin = calib[margin_key]
        if not (_positive(margin) and margin >= 1):
            return f"key {margin_key!r} must be a number >= 1, got {json.dumps(margin)}"
        for key in keys:
            why = _shape_error(key, calib[key], packaged[key])
            if why:
                return why
    return None


def load_calibration(path=None):
    """The calibration dictionary at `path`, the packaged one by default.  Raises
    ValueError unless the file reads as JSON and, naming the key, unless each
    key of the CALIBRATED table has the packaged file's shape, each value is a
    finite number > 0 or [lo, hi] with 0 < lo <= hi, and each margin is >= 1."""
    try:
        calib = _read_calibration(path)
    except OSError as exc:
        raise ValueError(f"calibration file cannot be read: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"calibration file is not JSON: {exc}") from exc
    error = _calibration_error(calib)
    if error:
        raise ValueError(f"calibration {error}")
    return calib


# ---------------------------------------------------------------------------
# Exact identities.


def check_orthonormality(rng):
    """Gram, Parseval and round trip within EXACT_TOL; the walks `coeffs` and
    `synthesize` against the `basis_matrix` products within model_bound(cells, ||f||)."""
    worst = walks = 0.0
    for d, N, dim in ((2, 3, 1), (3, 2, 1), (5, 1, 1), (2, 2, 2)):
        sys = build_system(DyadicParams(d, N, dim=dim))
        B = sys.basis_matrix
        G = B.conj().T @ B * sys.cell_measure
        worst = max(worst, float(np.abs(G - np.eye(sys.dim_basis)).max()))
        f = StepFunction(rng.standard_normal(sys.n_cells) + 1j * rng.standard_normal(sys.n_cells))
        c = sys.coeffs(f)
        worst = max(worst, abs(float((np.abs(c) ** 2).sum())
                               - float((np.abs(f.values) ** 2).sum() * sys.cell_measure)))
        g = sys.synthesize(c)
        worst = max(worst, float(np.abs(g.values - f.values).max()))
        bound = model_bound(sys.n_cells, float(np.abs(f.values).max()))
        analysis = B.conj().T @ f.scalar() * sys.cell_measure
        walks = max(walks, float(np.abs(c[:, 0, 0] - analysis).max()) / bound,
                    float(np.abs(g.scalar() - B @ c[:, 0, 0]).max()) / bound)
    return CheckRecord("haar-orthonormality-parseval", "haar-basis-expansion",
                       worst <= EXACT_TOL and walks <= 1.0, worst,
                       f"walks at {walks:.2g} of the model bound")


def check_product_rule(rng):
    worst = 0.0
    for d in (2, 3, 5):
        sys = build_system(DyadicParams(d, 2))
        cube = CubeId(1, (int(rng.integers(0, d)),))
        meas = sys.measure(cube)
        for i in range(1, d):
            hi = sys.haar_values(HaarIndex(cube, i))
            for j in range(1, d):
                hj = sys.haar_values(HaarIndex(cube, j))
                r = (i + j - 1) % d + 1
                if r == d:
                    target = meas**-0.5 * (meas**-0.5) * (np.abs(hi) > 0)
                else:
                    target = meas**-0.5 * sys.haar_values(HaarIndex(cube, r))
                worst = max(worst, float(np.abs(hi * hj - target).max()))
    return _rec("haar-product-rule", "same-cube-color-product", worst, EXACT_TOL)


def check_expectation_algebra(rng):
    sys = build_system(DyadicParams(3, 3))
    f = StepFunction(rng.standard_normal(27) + 1j * rng.standard_normal(27))
    worst = 0.0
    for k in range(0, 4):
        ek = expectation(sys, f, k)
        worst = max(worst, float(np.abs(expectation(sys, ek, k).values - ek.values).max()))
        for j in range(0, k):
            worst = max(worst, float(np.abs(
                expectation(sys, ek, j).values - expectation(sys, f, j).values).max()))
    total = expectation(sys, f, 0).values.copy()
    for k in range(1, 4):
        total = total + martingale_difference(sys, f, k).values
    worst = max(worst, float(np.abs(total - f.values).max()))
    return _rec("filtration-telescoping", "expectation-tower-rule", worst, EXACT_TOL)


def check_adjoint(rng):
    worst = 0.0
    for d, N, m in ((2, 3, 1), (3, 2, 2)):
        sys = build_system(DyadicParams(d, N))
        b = random_symbol(sys, rng, blockdim=m)
        worst = max(worst, float(np.abs(
            adjoint_paraproduct(sys, b) - paraproduct(sys, b).conj().T).max()))
    return _rec("adjoint-conjugate-transpose", "paraproduct-adjoint-formula", worst, EXACT_TOL)


def check_triangle_split(rng):
    worst = 0.0
    for d, N, m, dim in ((2, 3, 1, 1), (3, 2, 1, 1), (3, 2, 2, 1), (5, 2, 1, 1), (2, 2, 1, 2)):
        sys = build_system(DyadicParams(d, N, dim=dim))
        b = random_symbol(sys, rng, blockdim=m)
        lam, lam_tilde = triangle_op(sys, b), triangle_tilde(sys, b)
        adj_star = adjoint_paraproduct(sys, b.star())
        scale = max(1.0, float(np.abs(lam).max()))
        worst = max(worst, float(np.abs(lam - adj_star - lam_tilde).max()) / scale)
        # circulant completion: the same-cube block extends to sum a_i A^i
        if m == 1 and d > 2:
            A = np.zeros((d, d))
            A[0, d - 1] = 1.0
            for j in range(d - 1):
                A[j + 1, j] = 1.0
            cube = sys.cubes_by_scale[0][0]
            w = sys.measure(cube) ** -0.5
            slots = [sys.position(HaarIndex(cube, i)) for i in range(1, d)]
            BI = np.zeros((d, d), dtype=complex)
            for i, slot in enumerate(slots, start=1):
                BI += w * b.blocks[slot][0, 0] * np.linalg.matrix_power(A, i)
            for s, row in enumerate(slots):
                for t, col in enumerate(slots):
                    if s != t:
                        worst = max(worst, abs(lam_tilde[row, col] - BI[s, t]) / scale)
    return _rec("triangle-blockdiag-split", "pointwise-product-split", worst, EXACT_TOL)


def check_decompose(rng):
    worst = 0.0
    for d, N, m, dim in ((2, 3, 1, 1), (3, 2, 2, 1), (2, 2, 2, 1), (2, 2, 1, 2)):
        sys = build_system(DyadicParams(d, N, dim=dim))
        for _ in range(10):
            b = random_symbol(sys, rng, blockdim=m)
            bun = decompose(sys, b)
            scale = max(1.0, float(np.abs(bun.mult).max()))
            worst = max(worst, float(np.abs(
                bun.mult - bun.pi - bun.lam - bun.r - bun.coarse).max()) / scale)
    return _rec("multiplication-decomposition", "pointwise-multiplier-split", worst, EXACT_TOL)


def check_band_vanishing(rng):
    sys = build_system(DyadicParams(3, 3))
    b = random_symbol(sys, rng)
    worst = 0.0
    for n in range(3):
        for mm in range(0, n + 1):
            worst = max(worst, float(np.abs(band(sys, b, n, mm)).max()))
    # resolution: pi = sum of bands over m > n plus the coarse-input column
    acc = sum(band(sys, b, n, mm) for n in range(3) for mm in range(n + 1, 3))
    resid = (paraproduct(sys, b) - acc)[:, 1:]  # the coarse-input column is not banded
    worst = max(worst, float(np.abs(resid).max()))
    return _rec("band-vanishing", "band-scale-support", worst, EXACT_TOL)


def check_rank_piece_orthogonality(rng):
    sys = build_system(DyadicParams(2, 3))
    b = random_symbol(sys, rng)
    pieces = [rank_piece(sys, b, h.cube, h.color) for h in sys.haar_indices]
    worst = 0.0
    for Pi, Pj in itertools.combinations(pieces, 2):
        worst = max(worst, float(np.abs(Pi.conj().T @ Pj).max()))
    worst = max(worst, float(np.abs(sum(pieces) - paraproduct(sys, b)).max()))
    return _rec("rank-piece-orthogonality", "rank-one-piece-products", worst, 1e-13)


def check_paraproduct_core(rng):
    """Two records from one draw on each of five systems.
    `paraproduct-core-spectrum`: the spectrum of `paraproduct_core`, padded
    with zeros, against the dense `singular_values(paraproduct)` within
    model_bound(D m, sigma_max).  `paraproduct-trace-norms`: the samplers'
    S_2 and S_4 from the tree walk against S_p of both spectra, and S_2
    against besov_haar(b, 2), which Parseval makes equal, within
    model_bound(D m, S_p)."""
    worst = worst_trace = 0.0
    for d, N, dim, m, shift in ((2, 6, 1, 1, (1, 0, 0, 1, 1, 0)), (3, 4, 1, 1, None),
                                (3, 3, 1, 2, None), (5, 3, 1, 1, None), (2, 3, 2, 1, (2, 1, 3))):
        sys = build_system(DyadicParams(d, N, dim=dim), GridShift(shift) if shift else None)
        b = random_symbol(sys, rng, blockdim=m)
        dense = spectral.singular_values(paraproduct(sys, b))
        sv = spectral.singular_values(paraproduct_core(sys, b))
        core = np.zeros(dense.size)
        core[: sv.size] = sv
        worst = max(worst, float(np.abs(core - dense).max()) / model_bound(dense.size, dense[0]))
        s2, s4 = _paraproduct_norms(sys, b, (2, 4))
        for p, tree, refs in ((2, s2, (norms.besov_haar(sys, b, 2),)), (4, s4, ())):
            for ref in (*refs, _lp(core, p, m), _lp(dense, p, m)):
                worst_trace = max(worst_trace, abs(tree - ref) / model_bound(dense.size, ref))
    return [_rec("paraproduct-core-spectrum", "paraproduct-tree-spectrum", worst, 1.0,
                 "of the model bound"),
            _rec("paraproduct-trace-norms", "paraproduct-tree-traces", worst_trace, 1.0,
                 "of the model bound")]


def _paraproduct_norms(sys, b, ps):
    """schatten_norms(paraproduct(sys, b), ps, m); the operator is never built.

    p = 2 and p = 4 come from the cube tree.  pi_b^* pi_b is
    sum_I a_I a_I^* (x) W_I (`cube_grams`), with <a_I, a_J> = 1/max(|I|, |J|)
    for nested cubes and 0 otherwise, so S_2^2 = (1/m) sum_I tr W_I / |I|
    and S_4^4 = (1/m) sum_I tr(W_I (W_I + 2 V_I)) / |I|^2, with V_I the sum
    of W_J over the cubes J strictly inside I (`subtree_sums`, walked only
    for p = 4).  Every other p comes from `paraproduct_core`, whose singular
    values are pi_b's padded with zeros up to D m.
    """
    _require_positive(ps)
    m, tree = b.blockdim, {}
    if 2 in ps or 4 in ps:
        W = cube_grams(sys, b)
        inverse = float(sys.d_eff) ** sys.scale_of_row()[1::sys.n_colors]  # 1/|I| per cube
        tree[2] = float(np.einsum("qaa,q->", W, inverse).real / m) ** 0.5
        if 4 in ps:
            X = W + 2 * subtree_sums(sys, W)
            tree[4] = float(np.einsum("qab,qba,q->", W, X, inverse ** 2).real / m) ** 0.25
    rest = [p for p in ps if p not in tree]
    core = iter(_padded_schatten_norms(paraproduct_core(sys, b), sys.dim_basis * m, rest, m)
                if rest else ())
    return [tree[p] if p in tree else next(core) for p in ps]


def check_commutator_identities(rng):
    worst = 0.0
    for d, N in ((2, 3), (3, 2)):
        sys = build_system(DyadicParams(d, N))
        for m in (1, 2):
            a = random_symbol(sys, rng, blockdim=1)
            b = random_symbol(sys, rng, blockdim=m)
            psi, v = commutator_pieces(sys, a, b)
            pa = paraproduct(sys, Symbol.from_blocks(sys, np.eye(m) * a.blocks[:, :1, :1]))
            pb = paraproduct(sys, b)
            rb = r_op(sys, b)
            lam = triangle_op(sys, b)
            rows = np.repeat(sys.scale_of_row(), m)  # cube scale per row; -1 for the coarse rows
            haar_cols = rows >= 0
            scale = max(1.0, float(np.abs(pa).max() * np.abs(pb).max()))
            # commutator against R_b, paraproduct-composition form
            lhs = pa @ rb - rb @ pa + psi + pa @ pb
            worst = max(worst, float(np.abs(lhs[:, haar_cols]).max()) / scale)
            # reservoir form via the tail operator
            lhs2 = pa @ rb - rb @ pa + pa @ (pb + lam) - v
            worst = max(worst, float(np.abs(lhs2[:, haar_cols]).max()) / scale)
            # triangular-projection form of the cascade matrix
            tri = spectral.triangular_project(pa @ lam, rows)
            worst = max(worst, float(np.abs(psi - tri).max()) / scale)
            # strict-containment zero pattern: Haar row scale <= Haar column scale
            zero = (rows[:, None] <= rows) & (rows[:, None] >= 0)
            worst = max(worst, float(np.abs(psi[zero]).max()) / scale)
    return _rec("commutator-cascade-identities", "paraproduct-commutator-split", worst, EXACT_TOL)


def check_phi_blocks(rng):
    worst = 0.0
    worst_cross = 0.0
    worst_norm = 0.0
    for dim, N in ((1, 4), (2, 2)):
        sys = build_system(DyadicParams(2, N, dim=dim))
        spec = shifts.random_shift(sys, 1, min(1, N - 1), rng)
        b = random_symbol(sys, rng)
        phi, blocks = shifts.phi_blocks(sys, spec, b)
        total = np.zeros_like(phi)
        for rows, cols, Bk in blocks.values():
            total[np.ix_(rows, cols)] += Bk
        haar = np.arange(sys.dim_basis) > 0
        scale = max(1.0, float(np.abs(phi).max()))
        worst = max(worst, float(np.abs((phi - total)[:, haar]).max()) / scale)
        for (rows_i, _, B_i), (rows_j, _, B_j) in itertools.combinations(blocks.values(), 2):
            # B_i^H B_j sums over the rows the two blocks share
            _, at_i, at_j = np.intersect1d(rows_i, rows_j, return_indices=True)
            worst_cross = max(worst_cross,
                              float(np.abs(B_i[at_i].conj().T @ B_j[at_j]).max(initial=0.0)))
        # one SVD per matrix serves both p: S_p(phi)^p against sum_k S_{p/2}(B_k^H B_k)^{p/2}
        ps = (2.0, 4.0)
        lhs_norms = spectral.schatten_norms(phi[:, haar][haar, :], ps)
        rhs_norms = [spectral.schatten_norms(Bk.conj().T @ Bk, [p / 2 for p in ps])
                     for _, _, Bk in blocks.values()]
        for i, p in enumerate(ps):
            lhs = lhs_norms[i] ** p
            rhs = sum(block[i] ** (p / 2) for block in rhs_norms)
            worst_norm = max(worst_norm, abs(lhs - rhs) / max(1.0, rhs))
    worst = max(worst, worst_cross, worst_norm)
    return _rec("shift-commutator-blocks", "per-cube-block-orthogonality", worst, 1e-10)


def check_bmo_forms(rng):
    worst = 0.0
    for d in (2, 3):
        sys = build_system(DyadicParams(d, 3))
        for _ in range(10):
            b = random_symbol(sys, rng)
            forms = norms.bmo_dyadic(sys, b)
            worst = max(worst, abs(forms.conditional - forms.coefficient)
                        / max(1.0, forms.coefficient))
    return _rec("bmo-two-forms", "conditional-vs-coefficient-mass", worst, EXACT_TOL)


def exact_identity_suite(seed=20240801):
    rng = np.random.default_rng(seed)
    return [
        check_orthonormality(rng),
        check_product_rule(rng),
        check_expectation_algebra(rng),
        check_adjoint(rng),
        check_triangle_split(rng),
        check_decompose(rng),
        check_band_vanishing(rng),
        check_rank_piece_orthogonality(rng),
        check_commutator_identities(rng),
        check_phi_blocks(rng),
        check_bmo_forms(rng),
        *check_paraproduct_core(rng),
    ]


# ---------------------------------------------------------------------------
# Explicit-constant inequalities.


def check_osc_constants(rng):
    worst = -np.inf
    for d in (2, 3):
        sys = build_system(DyadicParams(d, 3))
        for p in (1.0, 2.0, 3.0):
            const = 1.0 / (d ** (1.0 / p) - 1.0)
            for _ in range(34):
                b = random_symbol(sys, rng)
                diff = norms.besov_diff(sys, b, p)
                osc = norms.besov_osc(sys, b, p)
                worst = max(worst, (osc - const * diff) / max(1.0, diff))
                worst = max(worst, (diff**p - d * osc**p) / max(1.0, diff**p))
    return _rec("oscillation-difference-constants", "two-sided-oscillation-bounds", worst, SLACK)


def check_band_bound(rng):
    worst = -np.inf
    sys = build_system(DyadicParams(2, 4))
    for p in (0.3, 0.7):
        for _ in range(100):
            b = random_symbol(sys, rng)
            n = int(rng.integers(0, 3))
            mm = int(rng.integers(n + 1, 4))
            lhs = spectral.schatten_norm(band(sys, b, n, mm), p) ** p
            rhs = 0.0
            root_measure = sys.scale_measure(mm) ** 0.5
            for lp in spectral.block_norms(b.blocks[sys.scale_of_row() == mm], (p,))[0]:
                rhs += (lp / root_measure) ** p
            rhs *= (sys.params.d - 1) * sys.params.d ** ((n - mm) * p / 2.0)
            worst = max(worst, (lhs - rhs) / max(1.0, rhs))
    return _rec("band-norm-bound", "offdiagonal-band-decay", worst, SLACK)


def check_splitting_bounds(rng):
    n_step = 3
    worst_off = -np.inf
    worst_diag = -np.inf
    sys = build_system(DyadicParams(2, 5))
    d = 2.0
    for p in (0.3, 0.7):
        c_off = (d - 1) * d ** (-p / 2.0) / (d ** (n_step * p / 2.0) - 1.0)
        c_diag = (d - 1) ** (p / 2.0 - 1.0) / d ** (p / 2.0 + 1.0)
        for _ in range(100):
            b = random_symbol(sys, rng, scales=range(1, sys.params.depth), with_mean=False)
            besov_p = norms.besov_haar(sys, b, p) ** p
            off = diag = 0.0
            for k in range(n_step):
                _, dg, of = splitting(sys, b, n_step, k)
                off += spectral.schatten_norm(of, p) ** p
                diag += spectral.schatten_norm(dg, p) ** p
            worst_off = max(worst_off, (off - c_off * besov_p) / max(1.0, besov_p))
            worst_diag = max(worst_diag, (c_diag * besov_p - diag) / max(1.0, besov_p))
    worst = max(worst_off, worst_diag)
    return _rec("progression-splitting-bounds", "diagonal-vs-offdiagonal-mass", worst, SLACK)


def check_rank_piece_lower(rng):
    worst = -np.inf
    sys = build_system(DyadicParams(3, 2))
    for p in (0.5, 1.0, 2.0):
        for _ in range(67):
            b = random_symbol(sys, rng)
            norm = _paraproduct_norms(sys, b, (p,))[0]
            best = max((lp / sys.scale_measure(s) ** 0.5) for s, lp in
                       zip(sys.scale_of_row()[1:], spectral.block_norms(b.blocks[1:], (p,))[0]))
            worst = max(worst, (best - norm) / max(1.0, best))
    return _rec("rank-piece-lower-bound", "single-piece-domination", worst, SLACK)


def check_blockdiag_contractive(rng):
    worst = -np.inf
    for _ in range(200):
        n = 12
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sizes = rng.integers(1, 5, 5)
        blocks, at = [], 0
        for s in sizes:
            if at >= n:
                break
            blocks.append(range(at, min(n, at + int(s))))
            at += int(s)
        if at < n:
            blocks.append(range(at, n))
        E = spectral.block_diagonal_project(T, blocks)
        ps = (1.0, 2.0, 4.0)
        for e, t in zip(spectral.schatten_norms(E, ps), spectral.schatten_norms(T, ps)):
            worst = max(worst, e - t)
        worst = max(worst, float(np.abs(spectral.block_diagonal_project(E, blocks) - E).max()))
    return _rec("blockdiag-contractive", "conditional-expectation-contraction", worst, SLACK)


def check_orthogonal_sum_lower(rng):
    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(2, 6))
        dim = 18
        rows = np.array_split(rng.permutation(dim), n)
        pieces = []
        for rr in rows:
            R = np.zeros((dim, dim), dtype=complex)
            R[rr, :] = rng.standard_normal((len(rr), dim)) + 1j * rng.standard_normal((len(rr), dim))
            pieces.append(R)
        T = sum(pieces)
        ps = (0.5, 1.0, 3.0)
        whole = spectral.schatten_norms(T, ps)
        parts = [spectral.schatten_norms(R, ps) for R in pieces]
        for k, p in enumerate(ps):
            lhs = whole[k] ** p
            rhs = sum(norm[k] ** p for norm in parts) / n
            worst = max(worst, (rhs - lhs) / max(1.0, rhs))
    return _rec("orthogonal-range-sum", "disjoint-range-lower-bound", worst, SLACK)


def check_shift_contractivity(rng):
    worst = -np.inf
    rejected = True
    for t in range(100):
        dim = 1 if t % 2 == 0 else 2
        sys = build_system(DyadicParams(2, 4 if dim == 1 else 2, dim=dim))
        i = int(rng.integers(0, 3 if dim == 1 else 2))
        j = int(rng.integers(0, 3 if dim == 1 else 2))
        if max(i, j) + 1 > sys.params.depth:
            i = j = 0
        spec = shifts.random_shift(sys, i, j, rng)
        S = shifts.assemble_shift(sys, spec)
        worst = max(worst, spectral.schatten_norm(S, np.inf) - 1.0)
    # the constructor must reject out-of-bound coefficients
    try:
        K = CubeId(0, (0,))
        I = CubeId(1, (0,))
        J = CubeId(1, (1,))
        shifts.ShiftSpec(1, 1, 1, {(I, J, K, 1, 1): 0.75})
        rejected = False
    except ValueError:
        pass
    rec = _rec("shift-contractivity", "shift-l2-bound", worst, SLACK)
    if not rejected:
        rec.passed = False
        rec.detail = "constructor accepted an out-of-bound coefficient"
    return rec


def check_p2_exact_relation(rng):
    worst = 0.0
    for d in (2, 3):
        sys = build_system(DyadicParams(d, 3))
        for _ in range(50):
            b = random_symbol(sys, rng)
            worst = max(worst, abs(norms.besov_diff(sys, b, 2)
                                   - math.sqrt(d) * norms.besov_haar(sys, b, 2)))
    return _rec("p2-exact-relation", "square-function-parseval", worst, EXACT_TOL * 100)


def explicit_constant_suite(seed=20240802):
    rng = np.random.default_rng(seed)
    return [
        check_osc_constants(rng),
        check_band_bound(rng),
        check_splitting_bounds(rng),
        check_rank_piece_lower(rng),
        check_blockdiag_contractive(rng),
        check_orthogonal_sum_lower(rng),
        check_shift_contractivity(rng),
        check_p2_exact_relation(rng),
    ]


# ---------------------------------------------------------------------------
# Transference.


def transference_suite(seed=20240803):
    rng = np.random.default_rng(seed)
    records = []

    worst = 0.0
    for ng in (2, 3):
        gens = algebras.car_generators(ng)
        for a in range(ng):
            for b in range(ng):
                anti = gens[a] @ gens[b] + gens[b] @ gens[a]
                target = (2.0 if a == b else 0.0) * np.eye(anti.shape[0])
                worst = max(worst, float(np.abs(anti - target).max()))
        subs = algebras.car_subsets(ng)
        for A in subs:
            for B in subs:
                val = algebras.car_trace(
                    algebras.car_word(A, ng).conj().T @ algebras.car_word(B, ng))
                worst = max(worst, abs(val - (1.0 if A == B else 0.0)))
        for _ in range(50):
            A = tuple(sorted(rng.choice(range(1, ng + 1),
                                        size=rng.integers(0, ng + 1), replace=False)))
            B = tuple(sorted(rng.choice(range(1, ng + 1),
                                        size=rng.integers(0, ng + 1), replace=False)))
            # oracle: the word table's sign against the explicit matrix product
            prod = algebras.car_word(A, ng) @ algebras.car_word(B, ng).conj().T
            tgt = algebras.car_sign(A, B, ng) * algebras.car_word(set(A) ^ set(B), ng)
            worst = max(worst, float(np.abs(prod - tgt).max()))
    records.append(_rec("car-relations", "anticommutation-products", worst, EXACT_TOL))

    worst = 0.0
    for d in (2, 3):
        om = np.exp(2j * np.pi / d)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                U = algebras.tensor_basis(i, j, d)
                ibar = (-i - 1) % d + 1
                jbar = (-j - 1) % d + 1
                worst = max(worst, float(np.abs(
                    U.conj().T - om ** (i * j) * algebras.tensor_basis(ibar, jbar, d)).max()))
                for k in range(1, d + 1):
                    for l in range(1, d + 1):
                        V = algebras.tensor_basis(k, l, d)
                        tgt = om ** (j * k) * algebras.tensor_basis(
                            (i + k - 1) % d + 1, (j + l - 1) % d + 1, d)
                        worst = max(worst, float(np.abs(U @ V - tgt).max()))
    # oracle: the word table's (eta, lam) against explicit Kronecker products
    idx = algebras.tensor_indices(2, 3)
    for _ in range(100):
        a = idx[rng.integers(0, len(idx))]
        b = idx[rng.integers(0, len(idx))]
        eta, lam = algebras.eta_lambda(a, b, 2)
        L = max(len(a), len(b), len(eta), 1)
        prod = algebras.tensor_word(a, 2, L) @ algebras.tensor_word(b, 2, L).conj().T
        worst = max(worst, float(np.abs(prod - lam * algebras.tensor_word(eta, 2, L)).max()))
        worst = max(worst, abs(abs(lam) - 1.0))
    records.append(_rec("tensor-word-products", "unitary-basis-products", worst, EXACT_TOL))

    worst = 0.0
    for ng in (2, 3):
        bhat = {A: complex(rng.standard_normal(), rng.standard_normal())
                for A in algebras.car_subsets(ng) if A}
        for _, _, resid in algebras.car_transference_checks(bhat, ng, (1, 2, 3, 4)):
            worst = max(worst, resid)
    records.append(_rec("car-transference", "diagonal-conjugation-norm", worst, 1e-8))

    worst = 0.0
    for levels in (2, 3):
        bhat = {a: complex(rng.standard_normal(), rng.standard_normal())
                for a in algebras.tensor_indices(2, levels) if a}
        for _, _, resid in algebras.tensor_transference_checks(bhat, 2, levels, (1, 2, 3, 4)):
            worst = max(worst, resid)
    records.append(_rec("tensor-transference", "diagonal-conjugation-norm", worst, 1e-8))

    worst = 0.0
    subs = algebras.car_subsets(3)
    levels = [max(s) if s else 0 for s in subs]
    bhat = {A: complex(rng.standard_normal(), rng.standard_normal()) for A in subs if A}
    P = algebras.car_paraproduct(bhat, 3)
    for i in range(len(subs)):
        for j in range(len(subs)):
            if levels[i] <= levels[j]:
                worst = max(worst, abs(P[i, j]))
    records.append(_rec("car-zero-pattern", "level-ordering-support", worst, 0.0))
    return records


# ---------------------------------------------------------------------------
# Median.


def _blocks(count):
    """range(count) in consecutive ranges of `median.DRAW_BLOCK`: the median
    draws are made and searched a block at a time, so that few drawn point
    sets are alive at once."""
    return [range(start, min(start + median.DRAW_BLOCK, count))
            for start in range(0, count, median.DRAW_BLOCK)]


def _median_draws(rng, ts):
    """(point sets, half-plane angles) of `median_suite`'s draws t in ts, in
    its order: each point set, then the angle it is tested at."""
    sets, angles = [], []
    for t in ts:
        kind = t % 5
        if kind == 0:
            n = int(rng.integers(1, 80))
            pts = median.WeightedPointSet(
                rng.standard_normal(n) + 1j * rng.standard_normal(n),
                rng.uniform(0.25, 2.0, n))
        elif kind == 1:
            n = int(rng.integers(1, 20))
            base = complex(rng.standard_normal(), rng.standard_normal())
            pts = median.WeightedPointSet(np.repeat(base, n), np.full(n, 0.5))
        elif kind == 2:
            n = int(rng.integers(2, 50))
            d = np.exp(1j * rng.uniform(0, np.pi))
            pts = median.WeightedPointSet(
                rng.standard_normal(n) * d + complex(rng.standard_normal(), rng.standard_normal()),
                rng.integers(1, 5, n) * 0.25)
        elif kind == 3:
            n = int(rng.integers(4, 60))
            z = (rng.integers(-4, 5, n) + 1j * rng.integers(-4, 5, n)).astype(complex) * 0.5
            pts = median.WeightedPointSet(z, rng.integers(1, 4, n) * 0.5)
        else:
            n = int(rng.integers(4, 40))
            centers = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z = rng.choice(centers, n) + 1e-13 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            pts = median.WeightedPointSet(z, np.ones(n))
        sets.append(pts)
        angles.append(rng.uniform(0, np.pi))
    return sets, angles


def _cube_pair_draws(rng, count):
    """`count` cube pairs of `median_suite` in its order, each (near values,
    far values, far measure) as `quadrant_sets` takes them."""
    pairs = []
    for _ in range(count):
        ni = int(rng.integers(1, 33))
        nh = int(rng.integers(1, 33))
        pairs.append((rng.standard_normal(ni) + 1j * rng.standard_normal(ni),
                      rng.standard_normal(nh) + 1j * rng.standard_normal(nh), 1.0))
    return pairs


def median_suite(seed=20240804):
    rng = np.random.default_rng(seed)
    median.stats.reset()
    records = []
    worst = np.inf
    worst_half = np.inf
    worst_quarter = np.inf
    for ts in _blocks(1000):
        sets, angles = _median_draws(rng, ts)
        for pts, frame, angle in zip(sets, median.complex_medians(sets), angles):
            masses = median.quadrant_masses(pts, frame)
            worst = min(worst, float(masses.min() - pts.total / 16.0))
            a = median.halfplane_median(pts, angle)
            # the mass of both closed half-planes at that offset, counted directly
            u = median._direction(angle)
            proj = pts.z.real * u.real + pts.z.imag * u.imag
            worst_half = min(worst_half,
                             pts.w[proj <= a].sum() - pts.total / 2,
                             pts.w[proj >= a].sum() - pts.total / 2)
            c, a1, a2, qmasses = median.quadrant_split(pts)
            worst_quarter = min(worst_quarter, float(qmasses.min() - pts.total / 4))
    tol = 1e-12 * 100
    records.append(_rec("median-sixteenth", "closed-quadrant-mass", -worst, tol))
    records.append(_rec("halfplane-half", "half-mass-split", -worst_half, tol))
    records.append(_rec("quadrant-quarter", "quarter-mass-split", -worst_quarter, tol))
    records.append(_rec("median-fallbacks", "constructive-path-coverage",
                        float(median.stats.fallbacks), 0.0,
                        detail=f"boundary={median.stats.boundary_cases}"))

    worst_pair = -np.inf
    for ts in _blocks(500):
        pairs = _cube_pair_draws(rng, len(ts))
        for (vi, vh, _), (theta, alpha, e_sets, f_sets) in zip(pairs, median.quadrant_sets(pairs)):
            rot = np.exp(1j * theta)
            for s in range(4):
                if not (e_sets[s].size and f_sets[s].size):
                    continue
                # every matched pair (x in E_s, x^ in F_s) of the cone at once
                near, far = vi[e_sets[s]], vh[f_sets[s]]
                dzs = near[:, None] - far[None, :]
                w = rot * np.exp(-1j * s * np.pi / 2) * dzs
                worst_pair = max(worst_pair,
                                 float((np.abs(near - alpha)[:, None] - 2 * np.abs(dzs)).max()),
                                 float((np.abs(w) - 2 * w.real).max()),
                                 float((np.abs(w.imag) - w.real).max()))
    records.append(_rec("quadrant-set-inequalities", "matched-cone-geometry",
                        worst_pair, 1e-9))
    return records


# ---------------------------------------------------------------------------
# Covering.


def _covering_draws(dim, n, rng):
    """Yield (lower corner, side, covering cube) for n random cubes in [0,1)^dim."""
    for _ in range(n):
        side = float(rng.uniform(0.001, 0.3))
        lo = [float(rng.uniform(0, 1.0 - side)) for _ in range(dim)]
        yield lo, side, cover_cube(lo, side)


def covering_suite(seed=20240805):
    rng = np.random.default_rng(seed)
    records = []
    for dim in (1, 2):
        worst_len = worst_dil = -np.inf
        worst_cont = 0.0
        for lo, side, q in _covering_draws(dim, 1000, rng):
            worst_len = max(worst_len, float(q.side) - LENGTH_RATIO_BOUND * side)
            for t in range(dim):
                if not (float(q.lower[t]) <= lo[t] + 1e-15
                        and lo[t] + side <= float(q.lower[t] + q.side) + 1e-15):
                    worst_cont = 1.0
                center = lo[t] + side / 2
                lo_d = center - DILATION_BOUND * side / 2
                hi_d = center + DILATION_BOUND * side / 2
                worst_dil = max(worst_dil, lo_d - float(q.lower[t]),
                                float(q.lower[t] + q.side) - hi_d)
        records.append(_rec(f"covering-dim{dim}", "shifted-grid-covering",
                            max(worst_len, worst_dil, worst_cont), 1e-12))
    return records


# ---------------------------------------------------------------------------
# Kernels.


def kernel_suite(seed=20240806):
    rng = np.random.default_rng(seed)
    records = []
    K = kernels.hilbert_kernel()

    samples = []
    for _ in range(300):
        x = rng.uniform(0, 1)
        y = x + rng.uniform(0.05, 2.0) * rng.choice([-1, 1])
        xp = x + rng.uniform(0.001, abs(x - y) / 2 * 0.999) * rng.choice([-1, 1])
        samples.append((x, xp, y))
    rep = kernels.standard_check(K, samples)
    records.append(_rec("standard-estimates", "size-and-difference-bounds",
                        max(rep["worst_size_ratio"] - 1.0, rep["worst_diff_ratio"] - 1.0),
                        1e-12, detail=f"violations={len(rep['violations'])}"))

    pr = kernels.nondegenerate_probe(K, [0.0], 1.0, 10.0)
    exact = abs(abs(pr["K00"]) - 1.0 / 10.0)
    eps_seq = [kernels.nondegenerate_probe(K, [0.0], 1.0, A)["eps"] for A in (10.0, 30.0, 100.0)]
    mono = all(eps_seq[i] > eps_seq[i + 1] for i in range(2))
    rec = _rec("far-point-probe", "critical-decay-witness", exact, 0.0,
               detail=f"eps={eps_seq}")
    rec.passed = rec.passed and mono
    records.append(rec)
    Kh = kernels.homogeneous_sign_kernel()
    prh = kernels.nondegenerate_probe(Kh, [0.3], 0.01, 10.0)
    records.append(_rec("homogeneous-probe", "lebesgue-point-direction",
                        abs(prh["y0"][0] - (0.3 + 10 * 0.01)), 1e-14))

    T = kernels.discretize(K, 256, refinement=2)
    ratios = []
    worst = 0.0
    for out in _two_cube_sweep(T, (8, 16, 32)):
        worst = max(worst, out["residual"], abs(out["ftilde_mean"]))
        ratios.append(out["remainder_ratio"])
    rec = _rec("weak-factorization", "two-cube-reconstruction", worst, 1e-12,
               detail=f"remainder ratios {ratios}")
    rec.passed = rec.passed and ratios[0] > ratios[1] > ratios[2]
    records.append(rec)
    return records


def _two_cube_sweep(T, A_values):
    """weak_factorization of one mean-zero f on cells 8..11 against the far
    cube 4 A cells to the right, for each separation A."""
    q_cells = np.arange(8, 12)
    f = np.zeros(T.n_cells, dtype=complex)
    f[q_cells[:2]] = 1.0
    f[q_cells[2:]] = -1.0
    return [kernels.weak_factorization(f, q_cells, q_cells + 4 * A, T) for A in A_values]


# ---------------------------------------------------------------------------
# Calibrated two-sided suites.  One sampler per calibrated quantity: the
# constants `calibrate_all` freezes and the ratios `calibrated_suite` judges
# come from the same draws; only the trial counts differ.


def _paraproduct_draws(sys, p_values, trials, rng, blockdim):
    """Yield (trial, p, ||pi_b||_{S_p}, ||b||_{B_p}) for random symbols b."""
    for trial in range(trials):
        b = random_symbol(sys, rng, blockdim=blockdim)
        s_p = _paraproduct_norms(sys, b, p_values)
        for p, norm, besov in zip(p_values, s_p, norms.besov_haars(sys, b, p_values)):
            yield trial, p, norm, besov


def _paraproduct_trials(d, depth, p_values, trials, rng, blockdim=1):
    """Ratios ||pi_b||_{S_p} / ||b||_{B_p} per p, on the d-adic depth-`depth` system."""
    out = {p: [] for p in p_values}
    sys = build_system(DyadicParams(d, depth))
    for _, p, norm, besov in _paraproduct_draws(sys, p_values, trials, rng, blockdim):
        out[p].append(norm / besov)
    return out


def _diff_haar_trials(d, trials, rng):
    """Difference-form over Haar-form Besov norms, depth-3 random symbols."""
    sys = build_system(DyadicParams(d, 3))
    ps = (0.5, 1.0, 2.0, 4.0)
    out = {p: [] for p in ps}
    for _ in range(trials):
        b = random_symbol(sys, rng)
        for p, diff, haar in zip(ps, norms.besov_diffs(sys, b, ps),
                                 norms.besov_haars(sys, b, ps)):
            out[p].append(diff / haar)
    return out


def _triangular_trials(p, trials, rng):
    """S_p growth of the triangular projection on random 16 x 16 matrices."""
    out = []
    for _ in range(trials):
        T = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        P = spectral.triangular_project(T, np.arange(16))
        out.append(spectral.schatten_norm(P, p) / spectral.schatten_norm(T, p))
    return out


def _nwo_trials(dim, depth, trials, rng):
    """NWO testing-pair sums over S_p norms of random grid operators."""
    sys = build_system(DyadicParams(2, depth, dim=dim))
    n = sys.n_cells
    ps = (1.5, 2.0, 3.0)
    out = {p: [] for p in ps}
    for _ in range(trials):
        V = kernels.GridOperator(
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n,
            dim, sys.axis_cells)
        fams = kernels.random_admissible_family(sys, rng)
        for p, nwo, norm in zip(ps, kernels.nwo_quantities(V, fams, ps),
                                spectral.schatten_norms(V.matrix, ps)):
            out[p].append(nwo / norm)
    return out


def _continuum_trials(dim, depth, trials, rng):
    """Continuum over shifted-family Besov sums per p, and the grid upper ratio
    ||b||_{B_2} / continuum at p = 2, on random step functions."""
    n_axis = 2**depth
    sys = build_system(DyadicParams(2, depth, dim=dim))
    ps = (1.5, 2.0, 3.0)
    out = {p: [] for p in ps}
    upper = []
    for _ in range(trials):
        vals = rng.standard_normal(n_axis**dim) + 1j * rng.standard_normal(n_axis**dim)
        conts = norms.besov_continuums(vals, ps, dim=dim, refinement=4)
        lattices = [norms.besov_haar_adjacents(vals, ps, dim, mask)
                    for mask in range(2**dim)]
        for i, p in enumerate(ps):
            fam = sum(sums[i] ** p for sums in lattices)
            out[p].append(conts[i] ** p / fam)
        bsym = Symbol.from_function(sys, StepFunction(vals))
        upper.append(norms.besov_haar(sys, bsym, 2.0) / conts[ps.index(2.0)])
    return out, upper


def _theta_trials(trials, rng):
    """Operator norm of theta_b = pi_b + Lambda_b over block BMO, 2 x 2 blocks."""
    sys = build_system(DyadicParams(2, 4))
    out = []
    for _ in range(trials):
        b = random_symbol(sys, rng, blockdim=2)
        lam = triangle_op(sys, b)
        theta = paraproduct(sys, b) + lam
        out.append(spectral.schatten_norm(theta, np.inf)
                   / max(1e-12, norms.bmo_operator(sys, b)))
    return out


def _testing_trials(trials, rng):
    """Separated-cube testing quantity of [H, b] over ||b||_{B_2}."""
    sys = build_system(DyadicParams(2, 5))
    T = kernels.discretize(kernels.hilbert_kernel(), 32, refinement=2)
    out = []
    for _ in range(trials):
        vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        C = kernels.commutator_grid_op(T, vals)
        bsym = Symbol.from_function(sys, StepFunction(vals))
        q = kernels.testing_quantity(C, sys, vals, A=4, p=2.0)
        out.append(q / norms.besov_haar(sys, bsym, 2.0))
    return out


def _car_trials(ng, trials, rng):
    """CAR word paraproduct S_p norms over their Besov functional."""
    ps = (1.0, 2.0, 4.0)
    out = {p: [] for p in ps}
    for _ in range(trials):
        bhat = {A: complex(rng.standard_normal(), rng.standard_normal())
                for A in algebras.car_subsets(ng) if A}
        P = algebras.car_paraproduct(bhat, ng)
        for p, norm, besov in zip(ps, spectral.schatten_norms(P, ps),
                                  algebras.besov_cars(bhat, ng, ps)):
            out[p].append(norm / besov)
    return out


def _tensor_trials(levels, trials, rng):
    """Tensor-word (M_2 levels) paraproduct S_p norms over their Besov functional."""
    ps = (1.0, 2.0, 4.0)
    out = {p: [] for p in ps}
    for _ in range(trials):
        bhat = {a: complex(rng.standard_normal(), rng.standard_normal())
                for a in algebras.tensor_indices(2, levels) if a}
        P = algebras.tensor_paraproduct(bhat, 2, levels)
        for p, norm, besov in zip(ps, spectral.schatten_norms(P, ps),
                                  algebras.besov_tensors(bhat, 2, levels, ps)):
            out[p].append(norm / besov)
    return out


# The calibrated records: (record, paper ref, margin key, margin, calibration
# keys).  Each judges the fresh values of its keys against the frozen ones widened
# by its margin (a key named *_lower holds a minimum); `calibrate` writes the margins.
CALIBRATED = (
    ("paraproduct-equivalence", "two-sided-symbol-norm", "paraproduct_margin", 1.6,
     ("paraproduct_ratio",)),
    ("block-equivalence", "block-size-independence", "block_margin", 1.6, ("block_ratio",)),
    ("difference-form-equivalence", "two-sided-difference-form", "diff_haar_margin", 1.3,
     ("diff_haar_ratio",)),
    ("triangular-projection-growth", "projection-norm-shape", "triangular_margin", 1.3,
     ("triangular_growth",)),
    ("shift-commutator-growth", "complexity-normalized-ratio", "shift_growth_margin", 2.5,
     ("shift_growth_anchor",)),
    ("nwo-bound", "testing-pair-sums", "nwo_margin", 1.5, ("nwo_constant",)),
    ("continuum-grid-equivalence", "window-besov-comparison", "continuum_margin", 1.5,
     ("continuum_ratio",)),
    ("bounded-multiplier", "operator-bmo-bound", "theta_bmo_margin", 1.5,
     ("theta_bmo_constant",)),
    ("testing-quantity-floor", "separated-cube-domination", "testing_margin", 1.5,
     ("testing_lower",)),
    ("word-algebra-equivalence", "word-paraproduct-besov-ratio", "word_margin", 1.6,
     ("car_ratio", "tensor_ratio")),
)


def _measure(rng, trials, calibrating, progress=None):
    """Every calibrated quantity, drawn in one fixed order: a dictionary shaped
    like calibration.json, with [min, max] for each two-sided ratio, the max
    for each upper constant and the min for `testing_lower`.  Trial counts are
    those of `calibrate` when `calibrating`, else those of `verify`."""
    def n(calibrate_count, verify_count):
        return calibrate_count if calibrating else verify_count

    say = progress or (lambda line: None)
    out = {"paraproduct_ratio": {}, "continuum_ratio": {}}
    for d, depth in ((2, 4), (2, 5), (3, 4), (3, 5)):
        res = _paraproduct_trials(d, depth, (0.5, 1.0, 2.0, 4.0),
                                  n(trials, max(20, trials // 4)), rng)
        out["paraproduct_ratio"].update(
            {f"{d},{p},{depth}": [min(v), max(v)] for p, v in res.items()})
        say(f"paraproduct d={d} N={depth}")
    out["block_ratio"] = {
        f"{m},{p}": [min(v), max(v)] for m in (1, 2, 3)
        for p, v in _paraproduct_trials(2, 4, (1.0, 2.0), n(max(40, trials // 4), 40), rng,
                                        blockdim=m).items()}
    say("block ratios")
    out["diff_haar_ratio"] = {
        f"{d},{p}": [min(v), max(v)] for d in (2, 3)
        for p, v in _diff_haar_trials(d, n(max(40, trials // 4), 30), rng).items()}
    say("difference-form ratios")
    out["triangular_growth"] = {
        str(p): max(_triangular_trials(p, n(trials // 2, trials // 4), rng), default=0.0)
        for p in (1.1, 2.0, 4.0, 10.0)}
    say("triangular growth")
    # commutator ratios over the complexity weight (i^2 + j^2 + 1)^(1/2); the
    # calibration sweep has only (i, j) = (0, 0), where the weight is exactly 1
    sysg = build_system(DyadicParams(2, 6))
    rows = shifts.commutator_growth_sweep(
        sysg, random_symbol(sysg, rng), [2.0],
        n([(0, 0)], [(i, j) for i in range(4) for j in range(4)]), seeds=range(n(5, 3)))
    out["shift_growth_anchor"] = max(r["ratio"] / (r["i"] ** 2 + r["j"] ** 2 + 1) ** 0.5
                                     for r in rows)
    say("shift growth anchor")
    out["nwo_constant"] = {
        f"{dim},{p}": max(v) for dim, depth in ((1, 5), (2, 3))
        for p, v in _nwo_trials(dim, depth, n(10, 5), rng).items()}
    say("nwo constants")
    for dim, depth in ((1, 4), (2, 3)):
        res, upper = _continuum_trials(dim, depth, n(60, 12), rng)
        out["continuum_ratio"].update({f"{dim},{p}": [min(v), max(v)] for p, v in res.items()})
        out["continuum_ratio"][f"grid_upper,{dim}"] = max(upper)
        say(f"continuum comparisons dim={dim}")
    out["theta_bmo_constant"] = max(_theta_trials(n(40, 10), rng))
    out["testing_lower"] = min(_testing_trials(n(20, 8), rng))
    say("testing quantity")
    out["car_ratio"] = {
        f"{ng},{p}": [min(v), max(v)] for ng in (2, 3)
        for p, v in _car_trials(ng, n(100, 25), rng).items()}
    out["tensor_ratio"] = {
        f"{levels},{p}": [min(v), max(v)] for levels, count in ((2, n(100, 25)), (3, n(30, 8)))
        for p, v in _tensor_trials(levels, count, rng).items()}
    say("word-algebra ratios")
    return out


def _excess(fresh, frozen, margin, lower=False):
    """How far fresh values leave the frozen ones widened by `margin` (<= 0 inside):
    a max past frozen * margin, a min (`lower`) or a band's lo below frozen / margin."""
    if isinstance(fresh, dict):
        return max(_excess(v, frozen[k], margin, lower) for k, v in fresh.items())
    if isinstance(fresh, list):
        return max(_excess(fresh[1], frozen[1], margin), _excess(fresh[0], frozen[0], margin, True))
    return (frozen / margin) / fresh - 1.0 if lower else fresh / (frozen * margin) - 1.0


def calibrate_all(seed=20240901, trials=200, progress=None):
    """Measure every frozen constant; returns the calibration dictionary."""
    return {**_measure(np.random.default_rng(seed), trials, True, progress),
            "seed": seed, "trials": trials,
            **{margin_key: margin for _, _, margin_key, margin, _ in CALIBRATED}}


def calibrated_suite(calib, seed=20240902, trials=200):
    fresh = _measure(np.random.default_rng(seed), trials, False)
    records = {name: _rec(name, ref, max(_excess(fresh[key], calib[key], calib[margin_key],
                                                 key.endswith("_lower")) for key in keys), 0.0)
               for name, ref, margin_key, _, keys in CALIBRATED}
    # two conditions on the frozen constants alone: the block bands centre alike
    # for every block size, and the triangular growth follows max(p, p / (p - 1))
    centers = {}
    for key, (lo, hi) in calib["block_ratio"].items():
        centers.setdefault(key.split(",")[1], []).append(0.5 * (lo + hi))
    spread = max(max(c) / min(c) for c in centers.values())
    growth = calib["triangular_growth"]
    shape = max(g / max(float(p), float(p) / (float(p) - 1.0)) for p, g in growth.items())
    base = growth["2.0"] / 2.0
    block, tri = records["block-equivalence"], records["triangular-projection-growth"]
    block.passed, block.detail = block.passed and spread < 2.0, f"center spread {spread:.3f}"
    tri.passed, tri.detail = tri.passed and shape <= 4.0 * base, f"shape/base {shape / base:.3f}"
    return list(records.values())


# ---------------------------------------------------------------------------
# Shifts (structure beyond contractivity).


def shift_suite(seed=20240807):
    rng = np.random.default_rng(seed)
    records = []
    # averaging over all 64 grid shifts of the depth-6 window
    params = DyadicParams(2, 6)
    avg = shifts.averaged_shift_cell_matrix(params, 1, 0)
    n = avg.shape[0]
    worst = 0.0
    for delta in (1, 7, 16):
        P = np.roll(np.eye(n), delta, axis=0)
        worst = max(worst, float(np.abs(P.conj().T @ avg @ P - avg).max()))
    records.append(_rec("shift-average-equivariance", "translation-covariant-average",
                        worst, 1e-10))

    sys = build_system(DyadicParams(2, 4))
    worst = 0.0
    for _ in range(20):
        spec = shifts.random_shift(sys, int(rng.integers(0, 3)), int(rng.integers(0, 3)), rng)
        excess = np.hypot(spec.values.real, spec.values.imag) - spec.radius * (1 + 1e-12)
        worst = max(worst, float(excess.max()))
    records.append(_rec("shift-coefficient-bound", "coefficient-radius", worst, 0.0))
    return records


SUITES = {
    "exact-identities": exact_identity_suite,
    "explicit-constants": explicit_constant_suite,
    "transference": transference_suite,
    "median": median_suite,
    "covering": covering_suite,
    "kernels": kernel_suite,
    "shifts": shift_suite,
    "calibrated": calibrated_suite,
}


def run_suite(name, calib=None):
    """The records of suite `name` ("all": every suite); `calib` goes to "calibrated" alone."""
    if name in ("all", "calibrated") and calib is None:
        raise ValueError(f"suite {name!r} needs a calibration: pass load_calibration()")
    if name == "all":
        return [r for key in SUITES for r in run_suite(key, calib)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](calib) if name == "calibrated" else SUITES[name]()

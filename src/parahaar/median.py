"""Complex median: orthogonal-line frames with closed-quadrant mass >= 1/16.

The construction follows the constructive splitting: a horizontal median
line, conditional medians on the two half-planes, then a search over line
angles through base points between the two conditional medians, realized on
the finite breakpoint set induced by atom projections and pairwise atom
directions.  Every emitted frame is certified by the independent mass oracle
before being returned; a logged exhaustive fallback exists for pathological
floating-point ties and must never fire on exact-arithmetic corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accel import quadrant_masses_kernel

__all__ = [
    "WeightedPointSet",
    "QuadrantFrame",
    "halfplane_median",
    "quadrant_split",
    "complex_median",
    "quadrant_masses",
    "quadrant_sets",
    "stats",
]


class _Stats:
    def __init__(self):
        self.reset()

    def reset(self):
        self.fallbacks = 0
        self.boundary_cases = 0
        self.calls = 0


stats = _Stats()


class WeightedPointSet:
    def __init__(self, points, weights):
        self.z = np.asarray(points, dtype=complex).ravel()
        self.w = np.asarray(weights, dtype=float).ravel()
        if self.z.shape != self.w.shape:
            raise ValueError("points and weights must have equal length")
        if self.z.size == 0:
            raise ValueError("point set must be nonempty")
        if np.any(self.w <= 0):
            raise ValueError("weights must be positive")
        self.total = float(self.w.sum())
        self._scale = max(1.0, float(np.abs(self.z).max()))

    def scale(self):
        return self._scale


@dataclass(frozen=True)
class QuadrantFrame:
    """Two orthogonal lines: L1 has direction e^{i theta}, theta in [0, pi).

    L1 = {z : <z, i e^{i theta}> = c1} and L2 = {z : <z, e^{i theta}> = c2},
    with <z, u> = Re(conj(u) z).  The four closed quadrants are numbered
    counterclockwise from (s >= c2, t >= c1) where s, t are the coordinates
    along e^{i theta} and i e^{i theta}.
    """

    theta: float
    c1: float
    c2: float

    @property
    def center(self) -> complex:
        u = _direction(self.theta)
        return self.c2 * u + self.c1 * 1j * u


def _frame_from_two_points(theta, p_on_l1, p_on_l2) -> QuadrantFrame:
    """Frame with L1 at angle theta through p_on_l1, L2 orthogonal through p_on_l2."""
    theta = theta % math.pi
    u = _direction(theta)
    n = 1j * u
    return QuadrantFrame(theta, (n.conjugate() * p_on_l1).real, (u.conjugate() * p_on_l2).real)


def quadrant_masses(pts: WeightedPointSet, frame: QuadrantFrame):
    """Closed-quadrant masses; boundary atoms count in every adjacent quadrant."""
    tol = 1e-12 * max(pts.scale(), abs(frame.c1), abs(frame.c2), 1.0)
    u = _direction(frame.theta)
    q = frame.center
    return quadrant_masses_kernel(
        np.ascontiguousarray(pts.z.real),
        np.ascontiguousarray(pts.z.imag),
        np.ascontiguousarray(pts.w),
        u.real,
        u.imag,
        q.real,
        q.imag,
        tol,
    )


def _inf_median(values, weights, half):
    """inf{x : mass(values <= x) >= half}; assumes weights positive."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    pos = int(np.searchsorted(cum, half - 1e-12 * cum[-1] if cum.size else half))
    pos = min(pos, len(order) - 1)
    return float(values[order[pos]])


def _median_interval(values, weights, half):
    """All x with both closed sides at least `half`: a closed value interval."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    eps = 1e-12 * cum[-1]
    lo = v[min(int(np.searchsorted(cum, half - eps)), len(v) - 1)]
    rev = np.cumsum(w[::-1])
    hi = v[len(v) - 1 - min(int(np.searchsorted(rev, half - eps)), len(v) - 1)]
    return float(lo), float(hi)


def _direction(angle: float) -> complex:
    cr, ci = math.cos(angle), math.sin(angle)
    if abs(cr) < 4e-16:
        cr = 0.0
    if abs(ci) < 4e-16:
        ci = 0.0
    return complex(cr, ci)


def halfplane_median(pts: WeightedPointSet, direction: float) -> float:
    """Offset a with both closed half-planes {<z,e^{i dir}> <= a / >= a} heavy."""
    u = _direction(direction)
    proj = pts.z.real * u.real + pts.z.imag * u.imag
    return _inf_median(proj, pts.w, pts.total / 2.0)


def quadrant_split(pts: WeightedPointSet):
    """Median line plus two perpendicular rays giving four quarters.

    Returns (c, alpha1, alpha2, masses): the base line is {Im = c}; the rays
    rise from alpha1 (upper half) and drop from alpha2 (lower half).
    """
    c = halfplane_median(pts, math.pi / 2)
    im = pts.z.imag
    upper = im >= c
    lower = im <= c
    re = pts.z.real
    a1 = _inf_median(re[upper], pts.w[upper], pts.w[upper].sum() / 2.0)
    a2 = _inf_median(re[lower], pts.w[lower], pts.w[lower].sum() / 2.0)
    masses = np.array(
        [
            pts.w[upper & (re <= a1)].sum(),
            pts.w[upper & (re >= a1)].sum(),
            pts.w[lower & (re <= a2)].sum(),
            pts.w[lower & (re >= a2)].sum(),
        ]
    )
    return c, a1, a2, masses


def _quarter_interval(angles, weights, apex_w, quarter):
    """Closed interval of rho with both {ang<=rho} and {ang>=rho} massing quarter.

    Returns (lo, hi, atom_lo, atom_hi); atom indices refer to the realizing
    angle entries (or -1 when an endpoint is forced to the 0 / pi boundary).
    """
    if angles.size == 0:
        return 0.0, math.pi, -1, -1
    # ndarray methods, not the np.* wrappers: this runs at every base point
    order = angles.argsort(kind="stable")
    a_sorted = angles[order]
    w_sorted = weights[order]
    cum = w_sorted.cumsum()
    total = cum[-1] + apex_w
    need = quarter - apex_w
    eps = 1e-12 * max(total, 1.0)
    if need <= eps:
        return 0.0, math.pi, -1, -1
    last = len(order) - 1
    k = min(int(cum.searchsorted(need - eps)), last)
    lo, ilo = float(a_sorted[k]), int(order[k])
    k = last - min(int(w_sorted[::-1].cumsum().searchsorted(need - eps)), last)
    return lo, float(a_sorted[k]), ilo, int(order[k])


def _exact_key(x):
    """Memo key of a float: its value and its sign, so -0.0 and 0.0 differ."""
    return x, math.copysign(1.0, x)


class _SplitData:
    """S1 / S4 atom data in normalized coordinates (base line = real axis).

    One instance serves one frame search: it remembers the intervals of
    every base point it has been asked about, keyed on the exact float.
    """

    def __init__(self, pts, c, a1, a2):
        z = pts.z - 1j * c
        im = z.imag
        re = z.real
        upper = im >= 0
        lower = im <= 0
        self.s1 = (upper & (re <= a1)).nonzero()[0]
        self.s4 = (lower & (re >= a2)).nonzero()[0]
        self.z = z
        self.w = pts.w
        self.q1 = self.w[self.s1].sum() / 4.0
        self.q4 = self.w[self.s4].sum() / 4.0
        self.scale = max(1.0, float(np.abs(z).max()))
        # per side: z, w, Re z and Im z clipped to the side's half-plane
        z1, z4 = z[self.s1], z[self.s4]
        self._side1 = (z1, self.w[self.s1], z1.real, np.maximum(z1.imag, 0.0))
        self._side4 = (z4, self.w[self.s4], z4.real, np.maximum(-z4.imag, 0.0))
        self._memo = {}

    def intervals(self, x):
        """rho-intervals at base point x for the S1 and the S4 constraints."""
        key = _exact_key(x)
        out = self._memo.get(key)
        if out is None:
            lo1, hi1, atom_lo1, atom_hi1 = self._side_interval(self._side1, self.s1, self.q1, x)
            plo, phi_, atom_plo, atom_phi = self._side_interval(self._side4, self.s4, self.q4, x)
            out = self._memo[key] = ((lo1, hi1, atom_lo1, atom_hi1),
                                     (math.pi - phi_, math.pi - plo, atom_phi, atom_plo))
        return out

    def _side_interval(self, side, idx, quarter, x):
        """_quarter_interval of one side's angles seen from x, atoms as indices."""
        z, w, re, im = side
        apex = np.abs(z - x) <= 1e-15 * self.scale
        if apex.any():
            keep = ~apex
            ang = np.arctan2(im[keep], (re - x)[keep])
            lo, hi, i, j = _quarter_interval(ang, w[keep], w[apex].sum(), quarter)
            idx = idx[keep]
        else:
            lo, hi, i, j = _quarter_interval(np.arctan2(im, re - x), w, 0.0, quarter)
        return lo, hi, int(idx[i]) if i >= 0 else -1, int(idx[j]) if j >= 0 else -1


def _certify(pts, frame):
    masses = quadrant_masses(pts, frame)
    need = pts.total / 16.0
    slack = 1e-12 * max(1.0, pts.total)
    return bool(np.all(masses >= need - slack)), masses


def _axis_intercept(za, zb):
    """x where the line through za (upper) and zb (lower) meets the real axis."""
    denom = za.imag - zb.imag
    if denom == 0.0:
        return None
    t = za.imag / denom
    return float(za.real + t * (zb.real - za.real))


def complex_median(pts: WeightedPointSet) -> QuadrantFrame:
    """Frame whose four closed quadrants each carry >= total/16 of the mass."""
    stats.calls += 1
    c = halfplane_median(pts, math.pi / 2)
    im = pts.z.imag
    re = pts.z.real
    upper = im >= c
    lower = im <= c
    l1, h1 = _median_interval(re[upper], pts.w[upper], pts.w[upper].sum() / 2.0)
    l2, h2 = _median_interval(re[lower], pts.w[lower], pts.w[lower].sum() / 2.0)

    if max(l1, l2) <= min(h1, h2):
        # the two conditional median intervals share a point: axes frame
        a = max(l1, l2)
        frame = _frame_from_two_points(math.pi / 2, complex(a, 0), complex(0, c))
        ok, _ = _certify(pts, frame)
        if ok:
            return frame
        mirrored, work, a1, a2 = False, pts, a, a
    elif h1 < l2:
        mirrored, work, a1, a2 = False, pts, h1, l2
    else:  # h2 < l1: mirror so the upper ray sits left of the lower one
        mirrored = True
        work = WeightedPointSet(-np.conj(pts.z), pts.w)
        a1, a2 = -l1, -h2

    frame = _search_frame(work, c, a1, a2)
    if frame is None:
        stats.fallbacks += 1
        frame = _fallback_frame(work, c, a1, a2)
    if frame is None:
        raise RuntimeError("complex median: no certified frame found")
    if mirrored:
        point = -frame.center.conjugate()
        frame = _frame_from_two_points((math.pi - frame.theta) % math.pi, point, point)
        ok, _ = _certify(pts, frame)
        if not ok:
            stats.fallbacks += 1
            frame = _fallback_frame(pts, c, -a2, -a1)
            if frame is None:
                raise RuntimeError("complex median: no certified frame found")
    return frame


def _offsets(work, u, a1, a2, c):
    """L2 offsets to try along u, computed only as far as they are read.

    L2 preferably crosses the base line between the two ray origins, but any
    certified offset is admissible: the midpoint of the origins' projections,
    then the projection median, then every atom projection in between.
    """
    t_a = (np.conj(u) * complex(a1, c)).real
    t_b = (np.conj(u) * complex(a2, c)).real
    yield 0.5 * (t_a + t_b)
    proj = (work.z * np.conj(u)).real
    yield _inf_median(proj, work.w, work.total / 2.0)
    t_lo, t_hi = min(t_a, t_b), max(t_a, t_b)
    yield from np.unique(proj[(proj > t_lo) & (proj < t_hi)])


def _try_frames_at(work, data, c, a1, a2, x):
    """All certified-frame attempts the overlap at base point x suggests."""
    (lo1, hi1, al1, ah1), (lo4, hi4, al4, ah4) = data.intervals(x)
    lo = max(lo1, lo4)
    hi = min(hi1, hi4)
    if lo > hi + 1e-9:
        return None
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)  # touching up to rounding
    base = complex(x, c)
    for rho in (0.5 * (lo + hi), lo, hi):
        u = _direction(rho)
        c1 = (np.conj(1j * u) * base).real
        for c2 in _offsets(work, u, a1, a2, c):
            frame = QuadrantFrame(rho % math.pi, float(c1), float(c2))
            ok, _ = _certify(work, frame)
            if ok:
                return frame
    return None


def _search_frame(work, c, a1, a2):
    data = _SplitData(work, c, a1, a2)
    if data.w[data.s1].sum() == 0 or data.w[data.s4].sum() == 0:
        return None
    A = _inf_median(data.z[data.s1].real, data.w[data.s1], 2 * data.q1)
    B = _inf_median(data.z[data.s4].real, data.w[data.s4], 2 * data.q4)
    failed = set()  # base points whose attempt found no frame; a retry would too

    def attempt(x):
        key = _exact_key(x)
        if key in failed:
            return None
        frame = _try_frames_at(work, data, c, a1, a2, x)
        if frame is None:
            failed.add(key)
        return frame

    for x in (A, B):
        frame = attempt(x)
        if frame is not None:
            return frame

    def order(x):
        (lo1, hi1, _, _), (lo4, hi4, _, _) = data.intervals(x)
        if max(lo1, lo4) <= min(hi1, hi4):
            return 0
        return -1 if hi1 < lo4 else 1

    oA, oB = order(A), order(B)
    if oA == 0 or oB == 0 or oA == oB:
        candidates = [B]
    else:
        xl, xh = A, B
        for _ in range(200):
            xm = 0.5 * (xl + xh)
            om = order(xm)
            if om == 0:
                frame = attempt(xm)
                if frame is not None:
                    return frame
                break
            if om == oA:
                xl = xm
            else:
                xh = xm
            if xh - xl <= 1e-14 * data.scale:
                break
        candidates = [xl, xh, 0.5 * (xl + xh)]
        # exact touch: intercepts of lines through the binding atom pairs
        for x in (xl, xh):
            (l1, h1, al1, ah1), (l4, h4, al4, ah4) = data.intervals(x)
            for ia in (al1, ah1):
                for ib in (al4, ah4):
                    if ia >= 0 and ib >= 0:
                        xc = _axis_intercept(data.z[ia], data.z[ib])
                        if xc is not None:
                            candidates.append(xc)
        # base-line atoms make the quantile curves jump; probe them directly
        on_axis = data.z[np.abs(data.z.imag) == 0.0].real
        candidates.extend(on_axis[(on_axis >= A) & (on_axis <= B)])
    seen = set()
    for x in candidates:
        if not np.isfinite(x) or x in seen:
            continue
        seen.add(x)
        frame = attempt(x)
        if frame is not None:
            return frame
    # boundary configurations: mass concentrated on a ray (handled via the
    # split-the-ray construction); flagged, not a fallback
    frame = _ray_concentration_frame(work, data, c, a1, a2)
    if frame is not None:
        stats.boundary_cases += 1
        return frame
    return None


def _ray_concentration_frame(work, data, c, a1, a2):
    """Half the S1 (or S4) mass on one ray: split the ray, halve the other side."""
    for side, idx, q in (("s1", data.s1, data.q1), ("s4", data.s4, data.q4)):
        z = data.z[idx]
        w = data.w[idx]
        other_idx = data.s4 if side == "s1" else data.s1
        zo = data.z[other_idx]
        for x in np.unique(np.concatenate([z.real, [a1, a2]])):
            rel = z - x
            ang = np.arctan2(np.abs(rel.imag), rel.real)
            for rho in np.unique(ang[np.abs(rel) > 0]):
                on_ray = np.abs(np.sin(ang - rho) * np.abs(rel)) <= 1e-14 * data.scale
                ray_mass = w[on_ray].sum()
                if ray_mass < 2 * q:
                    continue
                # median point along the ray, back in the working coordinates
                dist = np.abs(rel[on_ray])
                t = _inf_median(dist, w[on_ray], ray_mass / 2.0)
                sgn = 1.0 if side == "s1" else -1.0
                tpoint = complex(x, c) + t * complex(math.cos(rho), sgn * math.sin(rho))
                # sweep lines through tpoint over the other quadrant's angles
                gam = np.angle(zo - (tpoint - 1j * c)) % math.pi
                for gamma in np.unique(np.concatenate([gam, [rho + math.pi / 2]])):
                    frame = _frame_from_two_points(gamma, tpoint, tpoint)
                    ok, _ = _certify(work, frame)
                    if ok:
                        return frame
    return None


def _fallback_frame(work, c, a1, a2):
    """Exhaustive certified search over breakpoint-induced candidate frames."""
    zs = work.z
    n = len(zs)
    cand_points = list(zs) + [complex(a1, c), complex(a2, c), complex(0.5 * (a1 + a2), c)]
    angles = {0.0, math.pi / 2}
    for i in range(n):
        for j in range(i + 1, n):
            dz = zs[j] - zs[i]
            if dz != 0:
                angles.add(float(np.angle(dz) % math.pi))
    for theta in sorted(angles):
        for pa in cand_points:
            for pb in cand_points:
                frame = _frame_from_two_points(theta, pa, pb)
                ok, _ = _certify(work, frame)
                if ok:
                    return frame
    return None


# ---------------------------------------------------------------------------
# Quadrant sets for cube pairs (the separated-cube testing machinery).


def quadrant_sets(values_i, values_hat, measure_hat=1.0):
    """(theta, alpha, E sets, F sets) from the median frame of the far cube.

    E_s collects the cells of I whose value sits in the s-th closed cone
    around alpha (axes at +-pi/4 to the rotation), F_s the cells of the far
    cube whose value, reflected through alpha, sits in the same cone.  The
    far cube's cells share the mass `measure_hat` equally in the median.
    """
    vi = np.asarray(values_i, dtype=complex).ravel()
    vh = np.asarray(values_hat, dtype=complex).ravel()
    if vi.size == 0 or vh.size == 0:
        raise ValueError("both cubes must carry values")
    pts = WeightedPointSet(vh, np.full(vh.size, measure_hat / vh.size))
    frame = complex_median(pts)
    alpha = frame.center
    theta = (math.pi / 4 - frame.theta) % (2 * math.pi)
    tol = 1e-12 * max(1.0, float(np.abs(vh).max()), float(np.abs(vi).max()), abs(alpha))

    def cones(w):
        re, im = w.real, w.imag
        return [
            (re >= np.abs(im) - tol),
            (im >= np.abs(re) - tol),
            (-re >= np.abs(im) - tol),
            (-im >= np.abs(re) - tol),
        ]

    rot = np.exp(1j * theta)
    e_sets = [np.nonzero(mask)[0] for mask in cones(rot * (vi - alpha))]
    f_sets = [np.nonzero(mask)[0] for mask in cones(rot * (alpha - vh))]
    return theta, alpha, e_sets, f_sets

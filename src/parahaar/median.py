"""Complex median: orthogonal-line frames with closed-quadrant mass >= 1/16.

The construction follows the constructive splitting: a horizontal median
line, conditional medians on the two half-planes, then a search over line
angles through base points between the two conditional medians, realized on
the finite breakpoint set induced by atom projections and pairwise atom
directions.  Every emitted frame is certified by the independent mass oracle
before being returned; a logged exhaustive fallback exists for pathological
floating-point ties and must never fire on exact-arithmetic corpora.  A
point set holds |z| <= max float / 16, so no sum the search forms
overflows; each bisection ends when its bracket has converged (within 49
rounds), and a search computes the angle intervals at a base point once.

`complex_medians` runs the search on many sets in lockstep: the sets of a
chunk are the zero-weight-padded rows of one array, and each stage of the
common route is one array pass over the rows still on it.  The stages are
the half-plane median and the two conditional median intervals; the axes
frame; the mirror and the S1 / S4 split with base points A and B; the angle
intervals at one base point per row; the bisection, one step per round; and
the first candidate frame at each attempted base point, certified by a
batched mass evaluation.  A set whose bisection ends without an overlap
leaves with its final bracket, and the per-set search resumes there at its
candidate list.  A set whose first candidate fails, or where the per-set
search would go straight to the ray construction or the fallback, is
searched again by `complex_median`.  That per-set search is also the
oracle: each set's frame and `stats` counts are the ones it gives.  To keep
them, a batched sum of a subset is taken as the subset's own compressed sum
(numpy's pairwise sum groups by length), sorts are stable with the padding
last, and per-set scalars (directions, offsets, rho) come from the same
Python arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accel import quadrant_masks, quadrant_masses_kernel

__all__ = [
    "WeightedPointSet",
    "QuadrantFrame",
    "halfplane_median",
    "quadrant_split",
    "complex_median",
    "complex_medians",
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

# The largest |z| a point set may hold: no sum the search or the mass kernel
# forms can overflow.  With r = max |z|, every point the search places (ray
# origins; base points: midpoints, atoms, or intercepts at t in [0, 1]; the
# ray construction's point, an atom) has modulus at most r.  The longest sum
# is the kernel's s = (re - qx) ux + (im - qy) uy for the frame centre
# (qx, qy) = c2 (ux, uy) + c1 (-uy, ux), with offsets c1 and c2 of two terms
# each (a point against a unit vector): 2 + 4 + 4 = 10 terms of modulus <= r.
_MAX_ABS = np.finfo(float).max / 16


class WeightedPointSet:
    def __init__(self, points, weights):
        self.z = np.asarray(points, dtype=complex).ravel()
        self.w = np.asarray(weights, dtype=float).ravel()
        if self.z.shape != self.w.shape:
            raise ValueError("points and weights must have equal length")
        if self.z.size == 0:
            raise ValueError("point set must be nonempty")
        top = float(np.abs(self.z).max())  # NaN if any point is NaN
        with np.errstate(over="ignore"):
            self.total = float(self.w.sum())
        if not (top <= _MAX_ABS and math.isfinite(self.total)):
            raise ValueError(f"points must be finite with |z| <= {_MAX_ABS:.6g}, "
                             "and weights finite with a finite sum")
        if np.any(self.w <= 0):
            raise ValueError("weights must be positive")
        self._scale = max(1.0, top)

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
        return _center(self, _direction(self.theta))


def _center(frame, u):
    """The frame's center, u its direction e^{i theta}."""
    return frame.c2 * u + frame.c1 * 1j * u


def _frame_from_two_points(theta, p_on_l1, p_on_l2) -> QuadrantFrame:
    """Frame with L1 at angle theta through p_on_l1, L2 orthogonal through p_on_l2."""
    theta = theta % math.pi
    u = _direction(theta)
    n = 1j * u
    return QuadrantFrame(theta, (n.conjugate() * p_on_l1).real, (u.conjugate() * p_on_l2).real)


def quadrant_masses(pts: WeightedPointSet, frame: QuadrantFrame):
    """Closed-quadrant masses; boundary atoms count in every adjacent quadrant."""
    return quadrant_masses_kernel(
        np.ascontiguousarray(pts.z.real),
        np.ascontiguousarray(pts.z.imag),
        np.ascontiguousarray(pts.w),
        *_kernel_frame(frame, pts.scale()),
    )


def _kernel_frame(frame, scale):
    """(ux, uy, qx, qy, tol): the frame as the mass kernel reads it."""
    u = _direction(frame.theta)
    q = _center(frame, u)
    return u.real, u.imag, q.real, q.imag, 1e-12 * max(scale, abs(frame.c1), abs(frame.c2), 1.0)


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
    return _median_interval(proj, pts.w, pts.total / 2.0)[0]


def quadrant_split(pts: WeightedPointSet):
    """Median line plus two perpendicular rays giving four quarters.

    Returns (c, alpha1, alpha2, masses): the base line is {Im = c}; the rays
    rise from alpha1 (upper half) and drop from alpha2 (lower half).
    """
    c, upper, lower, (a1, _), (a2, _) = _halves(pts)
    re = pts.z.real
    quarters = (upper & (re <= a1), upper & (re >= a1), lower & (re <= a2), lower & (re >= a2))
    return c, a1, a2, np.array([pts.w[q].sum() for q in quarters])


def _halves(pts):
    """(c, upper, lower, (l1, h1), (l2, h2)): the median line {Im = c}, the
    masks of its two closed half-planes, and the conditional median interval
    of Re z on the upper and on the lower one."""
    c = halfplane_median(pts, math.pi / 2)
    upper = pts.z.imag >= c
    lower = pts.z.imag <= c
    re, w = pts.z.real, pts.w
    return (c, upper, lower, _median_interval(re[upper], w[upper], w[upper].sum() / 2.0),
            _median_interval(re[lower], w[lower], w[lower].sum() / 2.0))


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


class _SplitData:
    """S1 / S4 atom data in normalized coordinates (base line = real axis)."""

    def __init__(self, pts, c, a1, a2):
        z = self.z = pts.z - 1j * c
        self.w = pts.w
        self.s1 = ((z.imag >= 0) & (z.real <= a1)).nonzero()[0]
        self.s4 = ((z.imag <= 0) & (z.real >= a2)).nonzero()[0]
        self.q1 = self.w[self.s1].sum() / 4.0
        self.q4 = self.w[self.s4].sum() / 4.0
        self.scale = max(1.0, float(np.abs(z).max()))
        # per side: z, w, Re z and Im z clipped to the side's half-plane
        z1, z4 = z[self.s1], z[self.s4]
        self._side1 = (z1, self.w[self.s1], z1.real, np.maximum(z1.imag, 0.0))
        self._side4 = (z4, self.w[self.s4], z4.real, np.maximum(-z4.imag, 0.0))

    def intervals(self, x):
        """rho-intervals at base point x for the S1 and the S4 constraints."""
        side1 = self._side_interval(self._side1, self.s1, self.q1, x)
        plo, phi_, atom_plo, atom_phi = self._side_interval(self._side4, self.s4, self.q4, x)
        return side1, (math.pi - phi_, math.pi - plo, atom_phi, atom_plo)

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
    return _median(pts, None)


def _median(pts, bracket):
    """complex_median(pts), its search resumed at `bracket` unless that is
    None (see `_search_frame`)."""
    stats.calls += 1
    c, _, _, (l1, h1), (l2, h2) = _halves(pts)
    axes, mirrored, a1, a2 = _route(c, l1, h1, l2, h2)
    if axes is not None and _certify(pts, axes)[0]:
        return axes
    work = WeightedPointSet(-np.conj(pts.z), pts.w) if mirrored else pts

    frame = _search_frame(work, c, a1, a2, bracket)
    if frame is None:
        stats.fallbacks += 1
        frame = _fallback_frame(work, c, a1, a2)
    if frame is not None and mirrored:
        frame = _unmirrored(frame)
        if not _certify(pts, frame)[0]:
            stats.fallbacks += 1
            frame = _fallback_frame(pts, c, -a2, -a1)
    if frame is None:
        raise RuntimeError("complex median: no certified frame found")
    return frame


def _route(c, l1, h1, l2, h2):
    """(axes frame or None, mirrored, a1, a2) from the conditional median
    intervals [l1, h1] of the upper and [l2, h2] of the lower half-plane.

    The search runs on the mirrored set z -> -conj(z) when mirrored is set,
    with ray origins a1 (upper) and a2 (lower) on the base line {Im = c}.
    """
    if max(l1, l2) <= min(h1, h2):
        # the two conditional median intervals share a point: axes frame
        a = max(l1, l2)
        return _frame_from_two_points(math.pi / 2, complex(a, 0), complex(0, c)), False, a, a
    if h1 < l2:
        return None, False, h1, l2
    # h2 < l1: mirror so the upper ray sits left of the lower one
    return None, True, -l1, -h2


def _unmirrored(frame):
    """The frame of the mirrored set, mapped back through z -> -conj(z)."""
    point = -frame.center.conjugate()
    return _frame_from_two_points((math.pi - frame.theta) % math.pi, point, point)


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
    yield _median_interval(proj, work.w, work.total / 2.0)[0]
    t_lo, t_hi = min(t_a, t_b), max(t_a, t_b)
    yield from np.unique(proj[(proj > t_lo) & (proj < t_hi)])


def _base_frames(work, x, c, a1, a2, lo1, hi1, lo4, hi4):
    """Frames through base point x, in the order the search tries them.

    There are none unless the S1 and S4 rho-intervals [lo1, hi1] and
    [lo4, hi4] at x overlap.  The first frame reads no atom of `work`.
    """
    lo, hi = max(lo1, lo4), min(hi1, hi4)
    if lo > hi + 1e-9:
        return
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)  # touching up to rounding
    base = complex(x, c)
    for rho in (0.5 * (lo + hi), lo, hi):
        u = _direction(rho)
        c1 = float((np.conj(1j * u) * base).real)
        for c2 in _offsets(work, u, a1, a2, c):
            yield QuadrantFrame(rho % math.pi, c1, float(c2))


def _try_frames_at(work, c, a1, a2, x, intervals):
    """The first certified frame through base point x, or None; `intervals`
    are `_SplitData.intervals(x)`."""
    (lo1, hi1, _, _), (lo4, hi4, _, _) = intervals
    for frame in _base_frames(work, x, c, a1, a2, lo1, hi1, lo4, hi4):
        if _certify(work, frame)[0]:
            return frame
    return None


def _search_frame(work, c, a1, a2, bracket):
    """A certified frame of the S1 / S4 search on `work`, or None.

    The search tries the base points A and B, then bisects between them for
    one where the S1 and S4 rho-intervals meet.  A bisection that ends
    without a meeting point leaves a bracket (xl, xh), and the search goes
    on to the candidates near it; a given `bracket` is where such a
    bisection ended, and the search starts at its candidates.  Each base
    point's intervals are computed once, and carried as (x, intervals).
    """
    data = _SplitData(work, c, a1, a2)
    if data.s1.size == 0 or data.s4.size == 0:
        return None
    A = _median_interval(data.z[data.s1].real, data.w[data.s1], 2 * data.q1)[0]
    B = _median_interval(data.z[data.s4].real, data.w[data.s4], 2 * data.q4)[0]
    mid = None  # the bracket's midpoint, where a bisection met without a frame
    if bracket is None:
        ends = []
        for x in (A, B):
            ends.append((x, data.intervals(x)))
            frame = _try_frames_at(work, c, a1, a2, *ends[-1])
            if frame is not None:
                return frame
        lo, hi = ends
        o_lo = _order_at(lo[1])
        if o_lo * _order_at(hi[1]) != -1:  # bisect only where the orders have opposite signs
            ends = None
        else:
            # |A|, |B| <= data.scale: the bracket reaches 1e-14 of it within 49 rounds
            while True:
                xm = 0.5 * (lo[0] + hi[0])
                at_m = xm, data.intervals(xm)
                o_mid = _order_at(at_m[1])
                if o_mid == 0:
                    frame = _try_frames_at(work, c, a1, a2, *at_m)
                    if frame is not None:
                        return frame
                    mid = at_m
                    break
                lo, hi = (at_m, hi) if o_mid == o_lo else (lo, at_m)
                if hi[0] - lo[0] <= 1e-14 * data.scale:
                    break
            ends = [lo, hi]
    else:
        ends = [(x, data.intervals(x)) for x in bracket]
    candidates = []
    if ends is not None:
        (xl, _), (xh, _) = ends
        candidates = [*ends, mid or (0.5 * (xl + xh), None)]
        # exact touch: intercepts of lines through the binding atom pairs
        for _, ((_, _, al1, ah1), (_, _, al4, ah4)) in ends:
            for ia in (al1, ah1):
                for ib in (al4, ah4):
                    if ia >= 0 and ib >= 0:
                        xc = _axis_intercept(data.z[ia], data.z[ib])
                        if xc is not None:
                            candidates.append((xc, None))
        # base-line atoms make the quantile curves jump; probe them directly
        on_axis = data.z[np.abs(data.z.imag) == 0.0].real
        candidates.extend((x, None) for x in on_axis[(on_axis >= A) & (on_axis <= B)])
    seen = set()
    for x, intervals in candidates:
        if x in seen:
            continue
        seen.add(x)
        frame = _try_frames_at(work, c, a1, a2, x,
                               data.intervals(x) if intervals is None else intervals)
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
        z, w = data.z[idx], data.w[idx]
        zo = data.z[data.s4 if side == "s1" else data.s1]
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
                t = _median_interval(dist, w[on_ray], ray_mass / 2.0)[0]
                sgn = 1.0 if side == "s1" else -1.0
                tpoint = complex(x, c) + t * complex(math.cos(rho), sgn * math.sin(rho))
                # sweep lines through tpoint over the other quadrant's angles
                gam = np.angle(zo - (tpoint - 1j * c)) % math.pi
                for gamma in np.unique(np.concatenate([gam, [rho + math.pi / 2]])):
                    frame = _frame_from_two_points(gamma, tpoint, tpoint)
                    if _certify(work, frame)[0]:
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
                if _certify(work, frame)[0]:
                    return frame
    return None


# ---------------------------------------------------------------------------
# Many searches in lockstep.

# point sets searched side by side, as the rows of one chunk's arrays; the
# sets are taken in order of size, so a chunk's rows carry little padding
_SET_BLOCK = 128

# callers with many sets draw and search this many at a time, so that a few
# hundred drawn sets are alive at once, not thousands: the process keeps the
# heap they grew (2000 median-verify sets held at once raised the benchmark's
# peak RSS by about 4 MB)
DRAW_BLOCK = 256


def complex_medians(point_sets) -> list:
    """[complex_median(p) for p in point_sets], with the searches in lockstep.

    Each stage of the common route is one array pass over the sets of a
    chunk still on it; the per-set search finishes a set that leaves, from
    its bisection bracket if it has one.  Frames and `stats` counts equal
    those of one `complex_median` call per set, whatever sets share a chunk.
    """
    point_sets = list(point_sets)
    frames = [None] * len(point_sets)
    by_size = sorted(range(len(point_sets)), key=lambda i: point_sets[i].z.size)
    for start in range(0, len(by_size), _SET_BLOCK):
        chunk = by_size[start:start + _SET_BLOCK]
        for i, frame in zip(chunk, _lockstep_frames([point_sets[i] for i in chunk])):
            frames[i] = frame
    return frames


def _lockstep_frames(sets):
    """complex_median of every set of one chunk."""
    n = np.array([p.z.size for p in sets])
    valid = np.arange(n.max()) < n[:, None]
    z = np.zeros(valid.shape, dtype=complex)
    z[valid] = np.concatenate([p.z for p in sets])
    w = np.zeros(valid.shape)
    w[valid] = np.concatenate([p.w for p in sets])
    total = np.array([p.total for p in sets])  # padded entries carry the weight 0

    # the median line {Im = c}, the conditional median intervals above and
    # below it, and from them the axes frame or the search's ray origins
    u = _direction(math.pi / 2)
    c = _row_median_interval(z.real * u.real + z.imag * u.imag, w, valid, total / 2.0)[0]
    halves = np.stack([valid & (z.imag >= c[:, None]), valid & (z.imag <= c[:, None])])
    half = _row_sums(w, halves) / 2.0
    l1, h1 = _row_median_interval(z.real, w, halves[0], half[0])
    l2, h2 = _row_median_interval(z.real, w, halves[1], half[1])
    routes = list(map(_route, c.tolist(), l1.tolist(), h1.tolist(), l2.tolist(), h2.tolist()))
    found = [None] * len(sets)
    axes = [j for j, route in enumerate(routes) if route[0] is not None]
    ok = _row_certified(z[axes], w[axes], total[axes], [routes[j][0] for j in axes])
    for j, good in zip(axes, ok.tolist()):
        if good:
            found[j] = routes[j][0]

    # the search, on the mirrored set z -> -conj(z) where the route says so
    rest = np.array([j for j, frame in enumerate(found) if frame is None], dtype=int)
    mirrored = np.array([routes[j][1] for j in rest], dtype=bool)
    work = z[rest]
    work[mirrored] = -np.conj(work[mirrored])
    searched, brackets = _lockstep_search(work, w[rest], valid[rest], total[rest], c[rest],
                                          [routes[j][2] for j in rest],
                                          [routes[j][3] for j in rest])
    back = [k for k, frame in enumerate(searched) if frame is not None and mirrored[k]]
    unmirrored = [_unmirrored(searched[k]) for k in back]
    ok = _row_certified(z[rest[back]], w[rest[back]], total[rest[back]], unmirrored)
    for k, frame, good in zip(back, unmirrored, ok.tolist()):
        searched[k] = frame if good else None
    for j, frame in zip(rest.tolist(), searched):
        found[j] = frame
    resume = {int(rest[k]): bracket for k, bracket in brackets.items()}

    stats.calls += len(found) - found.count(None)
    return [_median(p, resume.get(j)) if frame is None else frame
            for j, (p, frame) in enumerate(zip(sets, found))]


def _lockstep_search(z, w, valid, total, c, a1, a2):
    """_search_frame of every row, as far as its common route goes.

    Rows are in work coordinates.  Returns (frames, brackets).  A row's frame
    is None when it leaves the route: when a first candidate frame fails its
    certificate, or where the per-set search goes on to its candidate list,
    the ray construction or the fallback.  A row whose bisection ended
    without a meeting point has its final (xl, xh) in `brackets`, keyed by
    row: its per-set search resumes there.
    """
    frames, brackets = [None] * len(z), {}
    zs = z - np.array([1j * ci for ci in c.tolist()], dtype=complex)[:, None]
    sides = np.stack([valid & (zs.imag >= 0) & (zs.real <= np.array(a1)[:, None]),
                      valid & (zs.imag <= 0) & (zs.real >= np.array(a2)[:, None])])
    quarter = _row_sums(w, sides) / 4.0
    A = _row_median_interval(zs.real, w, sides[0], 2 * quarter[0])[0]
    B = _row_median_interval(zs.real, w, sides[1], 2 * quarter[1])[0]
    split = _RowSplit(*_front(np.concatenate(sides), np.concatenate([zs, zs]),
                              np.concatenate([w, w]),
                              np.maximum(np.concatenate([zs.imag, -zs.imag]), 0.0)),
                      quarter.ravel(),
                      np.maximum(1.0, np.where(valid, np.abs(zs), 0.0).max(axis=1)))
    cl = c.tolist()

    def attempt(rows, x, intervals):
        """Certify the first frame at x of each row whose intervals overlap
        there; returns where one was tried: those rows are finished."""
        tried, cands = np.zeros(len(rows), dtype=bool), []
        for j, (r, xr, *bounds) in enumerate(zip(rows.tolist(), x.tolist(),
                                                 *(v.tolist() for v in intervals))):
            frame = next(_base_frames(None, xr, cl[r], a1[r], a2[r], *bounds), None)
            if frame is not None:
                tried[j] = True
                cands.append(frame)
        done = rows[tried]
        ok = _row_certified(z[done], w[done], total[done], cands)
        for r, frame, good in zip(done.tolist(), cands, ok.tolist()):
            frames[r] = frame if good else None
        return tried

    # an empty S1 or S4 sends the per-set search to its fallback
    rows = np.flatnonzero(sides.any(axis=2).all(axis=0))
    at_a = split.take(rows).intervals(A[rows])
    on = ~attempt(rows, A[rows], at_a)
    rows, at_a = rows[on], [v[on] for v in at_a]
    at_b = split.take(rows).intervals(B[rows])
    on = ~attempt(rows, B[rows], at_b)
    o_a, o_b = _order(*(v[on] for v in at_a)), _order(*(v[on] for v in at_b))
    rows = rows[on]

    # bisection between A and B, where their orders have opposite signs, for
    # a base point where the two intervals meet
    on = o_a * o_b == -1
    rows, o_a = rows[on], o_a[on]
    xl, xh = A[rows], B[rows]
    while rows.size:  # |A|, |B| <= scale: each row converges within 49 rounds
        xm = 0.5 * (xl + xh)
        at_m = split.take(rows).intervals(xm)
        o_m = _order(*at_m)
        meet = o_m == 0
        if meet.any():
            attempt(rows[meet], xm[meet], [v[meet] for v in at_m])
        xl, xh = np.where(o_m == o_a, [xm, xh], [xl, xm])
        on = ~meet & ~(xh - xl <= 1e-14 * split.scale[rows])
        ended = ~meet & ~on
        brackets.update(zip(rows[ended].tolist(), zip(xl[ended].tolist(), xh[ended].tolist())))
        rows, o_a, xl, xh = rows[on], o_a[on], xl[on], xh[on]
    return frames, brackets


class _RowSplit:
    """The S1 and S4 atoms of many searches (see `_SplitData`): row i holds
    search i's S1 atoms and row m + i its S4 atoms, at the front of the row.

    Each row has its member mask, z, w, Im z clipped to the side's
    half-plane and the side's quarter mass; `scale` is per search.
    """

    def __init__(self, member, z, w, im, quarter, scale):
        self.member, self.z, self.w, self.im, self.quarter = member, z, w, im, quarter
        self.scale = scale

    def take(self, rows):
        both = np.concatenate([rows, rows + len(self.scale)])
        return _RowSplit(self.member[both], self.z[both], self.w[both], self.im[both],
                         self.quarter[both], self.scale[rows])

    def intervals(self, x):
        """(lo1, hi1, lo4, hi4) of `_SplitData.intervals` at x[i], per search i."""
        m = len(x)
        rel = self.z - np.concatenate([x, x])[:, None]
        tol = np.concatenate([self.scale, self.scale]) * 1e-15
        apex = self.member & (np.abs(rel) <= tol[:, None])
        lo, hi = _row_quarter_interval(np.arctan2(self.im, rel.real), self.w,
                                       self.member & ~apex, _row_sums(self.w, apex),
                                       self.quarter)
        return lo[:m], hi[:m], math.pi - hi[m:], math.pi - lo[m:]


def _front(member, *arrays):
    """(member mask, *arrays) with each row's members moved to its front in
    order, the rows cut to the largest member count."""
    count = member.sum(axis=1)
    order = np.argsort(~member, axis=1, kind="stable")[:, :max(count.max(initial=0), 1)]
    head = np.arange(order.shape[1]) < count[:, None]
    return (head, *(np.take_along_axis(a, order, axis=1) for a in arrays))


def _order(lo1, hi1, lo4, hi4):
    """0 where the S1 interval [lo1, hi1] and the S4 interval [lo4, hi4]
    overlap, else -1 (S1's lies below) or 1; per row, or of scalars."""
    overlap = (lo1 <= hi1) & (lo1 <= hi4) & (lo4 <= hi1) & (lo4 <= hi4)
    return np.where(overlap, 0, np.where(hi1 < lo4, -1, 1))


def _order_at(intervals):
    """`_order` of one base point's `_SplitData.intervals`."""
    (lo1, hi1, _, _), (lo4, hi4, _, _) = intervals
    return int(_order(lo1, hi1, lo4, hi4))


def _row_certified(z, w, total, frames):
    """_certify(row i, frames[i]) per row, on the mass kernel's quadrant masks."""
    if not frames:
        return np.zeros(0, dtype=bool)
    scale = np.maximum(1.0, np.abs(z).max(axis=1))  # WeightedPointSet.scale; padding is 0
    ux, uy, qx, qy, tol = (np.array(v)[:, None]
                           for v in zip(*map(_kernel_frame, frames, scale.tolist())))
    quadrants = np.stack(quadrant_masks(z.real, z.imag, ux, uy, qx, qy, tol))
    quadrants &= w > 0  # not the padding
    need = total / 16.0 - 1e-12 * np.maximum(1.0, total)
    # A padded row sum and the kernel's compressed sum round differently, but
    # each is within (n - 1) u total of the exact mass (n terms, u = 2^-53):
    # only a mass that close to `need` is decided by the compressed sum itself.
    masses = np.where(quadrants, w, 0.0).sum(axis=-1)
    close = np.abs(masses - need) <= 4 * w.shape[1] * np.finfo(float).eps * total
    if close.any():
        q, r = np.nonzero(close)
        masses[q, r] = _row_sums(w[r], quadrants[q, r])
    return (masses >= need).all(axis=0)


def _row_sums(w, masks):
    """w[row][mask].sum() for every row of w under every mask in `masks`.

    numpy's pairwise sum groups the terms by the length summed, so a padded
    row would round differently: rows of equal count are summed as one
    contiguous block each, as their compressed sums are.
    """
    counts = masks.sum(axis=-1)
    out = np.zeros(counts.shape)
    if not counts.any():
        return out
    flat = np.broadcast_to(w, masks.shape)[masks]
    counts = counts.ravel()
    starts = counts.cumsum() - counts
    order = counts.argsort(kind="stable")
    sizes, firsts, nrows = np.unique(counts[order], return_index=True, return_counts=True)
    sums = np.zeros(counts.size)
    for k, first, r in zip(sizes.tolist(), firsts.tolist(), nrows.tolist()):
        if k:
            rows = order[first:first + r]
            sums[first:first + r] = flat[starts[rows][:, None] + np.arange(k)].sum(axis=1)
    out.ravel()[order] = sums
    return out


def _row_sorted(values, w, member):
    """(values, weights, cumsum, count) of every row's members in stable value
    order, then the rest with weight 0, so row cumsums are the members' own."""
    v = np.where(member, values, np.inf)
    order = v.argsort(axis=1, kind="stable")
    order += np.arange(0, v.size, v.shape[1])[:, None]
    ws = np.where(member, w, 0.0).take(order)
    return v.take(order), ws, ws.cumsum(axis=1), member.sum(axis=1)


def _row_bounds(v, ws, cum, count, target):
    """(lo, hi) per row: the sorted member where the prefix mass first reaches
    target, and where the suffix mass does, read as the per-set code reads."""
    r = np.arange(len(v))
    last = count - 1
    k = np.minimum((cum < target[:, None]).sum(axis=1), last)
    rev = ws[:, ::-1].cumsum(axis=1)
    # reversed, the members are the last `count` entries of the row
    members = np.arange(ws.shape[1]) >= ws.shape[1] - count[:, None]
    k_rev = np.minimum(((rev < target[:, None]) & members).sum(axis=1), last)
    return v[r, k], v[r, last - k_rev]


def _row_median_interval(values, w, member, half):
    """_median_interval(values[member], w[member], half) of every row."""
    v, ws, cum, count = _row_sorted(values, w, member)
    return _row_bounds(v, ws, cum, count, half - 1e-12 * cum[np.arange(len(v)), count - 1])


def _row_quarter_interval(angles, w, keep, apex_w, quarter):
    """(lo, hi) of _quarter_interval(angles[keep], w[keep], apex_w, quarter) per row."""
    v, ws, cum, count = _row_sorted(angles, w, keep)
    total = cum[np.arange(len(v)), np.maximum(count - 1, 0)] + apex_w
    need = quarter - apex_w
    eps = 1e-12 * np.maximum(total, 1.0)
    lo, hi = _row_bounds(v, ws, cum, count, need - eps)
    whole = (count == 0) | (need <= eps)
    return np.where(whole, 0.0, lo), np.where(whole, math.pi, hi)


# ---------------------------------------------------------------------------
# Quadrant sets for cube pairs (the separated-cube testing machinery).


def quadrant_sets(cube_pairs):
    """(theta, alpha, E sets, F sets) of every cube pair, from the median frame
    of its far cube; the far cubes' medians are searched in lockstep.

    A pair is (values on I, values on the far cube, the far cube's measure);
    the far cube's cells share that measure equally in the median.  E_s
    collects the cells of I whose value sits in the s-th closed cone around
    alpha (axes at +-pi/4 to the rotation), F_s the cells of the far cube
    whose value, reflected through alpha, sits in the same cone.
    """
    cubes = []
    for values_i, values_hat, measure_hat in cube_pairs:
        vi = np.asarray(values_i, dtype=complex).ravel()
        vh = np.asarray(values_hat, dtype=complex).ravel()
        if vi.size == 0 or vh.size == 0:
            raise ValueError("both cubes must carry values")
        if not np.abs(vi).max() <= _MAX_ABS:  # as WeightedPointSet checks vh
            raise ValueError(f"values on I must be finite with |z| <= {_MAX_ABS:.6g}")
        cubes.append((vi, vh, WeightedPointSet(vh, np.full(vh.size, measure_hat / vh.size))))
    frames = complex_medians([pts for _, _, pts in cubes])
    return [_cone_sets(vi, vh, frame) for (vi, vh, _), frame in zip(cubes, frames)]


def _cone_sets(vi, vh, frame):
    """One pair's (theta, alpha, E sets, F sets) from its far cube's frame."""
    alpha = frame.center
    theta = (math.pi / 4 - frame.theta) % (2 * math.pi)
    tol = 1e-12 * max(1.0, float(np.abs(vh).max()), float(np.abs(vi).max()), abs(alpha))

    def cones(w):
        re, im = w.real, w.imag
        return [re >= np.abs(im) - tol, im >= np.abs(re) - tol,
                -re >= np.abs(im) - tol, -im >= np.abs(re) - tol]

    rot = np.exp(1j * theta)
    e_sets = [np.nonzero(mask)[0] for mask in cones(rot * (vi - alpha))]
    f_sets = [np.nonzero(mask)[0] for mask in cones(rot * (alpha - vh))]
    return theta, alpha, e_sets, f_sets

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parahaar.median as med
from parahaar.median import (QuadrantFrame, WeightedPointSet, complex_median,
                             halfplane_median, quadrant_masses, quadrant_sets,
                             quadrant_split)


def masses_ok(pts, frame, factor=16.0):
    masses = quadrant_masses(pts, frame)
    return bool(np.all(masses >= pts.total / factor - 1e-12 * max(1.0, pts.total)))


def test_empty_rejected():
    with pytest.raises(ValueError):
        WeightedPointSet([], [])
    with pytest.raises(ValueError):
        WeightedPointSet([1.0], [0.0])


def test_halfplane_examples():
    pts = WeightedPointSet([-1.0, 1.0], [1.0, 1.0])
    assert halfplane_median(pts, 0.0) == -1.0  # the inf rule
    single = WeightedPointSet([0.3 + 0.4j], [2.0])
    a = halfplane_median(single, 0.7)
    u = med._direction(0.7)
    proj = 0.3 * u.real + 0.4 * u.imag
    assert a == pytest.approx(proj)


def test_halfplane_random(rng):
    for _ in range(300):
        n = int(rng.integers(1, 50))
        pts = WeightedPointSet(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                               rng.uniform(0.1, 2.0, n))
        ang = float(rng.uniform(0, np.pi))
        a = halfplane_median(pts, ang)
        u = med._direction(ang)
        proj = pts.z.real * u.real + pts.z.imag * u.imag
        assert pts.w[proj <= a].sum() >= pts.total / 2 - 1e-12
        assert pts.w[proj >= a].sum() >= pts.total / 2 - 1e-12


def test_quadrant_split_examples(rng):
    pts = WeightedPointSet([1, -1, 1j, -1j], [1.0] * 4)
    c, a1, a2, masses = quadrant_split(pts)
    assert np.all(masses >= 1.0)
    same = WeightedPointSet([2 + 3j] * 5, [1.0] * 5)
    _, _, _, m2 = quadrant_split(same)
    assert np.all(m2 == 5.0)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        p = WeightedPointSet(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                             rng.uniform(0.1, 2.0, n))
        _, _, _, m = quadrant_split(p)
        assert np.all(m >= p.total / 4 - 1e-12 * p.total)


def test_median_examples():
    pts = WeightedPointSet([1, -1, 1j, -1j], [1.0] * 4)
    frame = complex_median(pts)
    assert np.all(quadrant_masses(pts, frame) >= 1.0)
    tri = WeightedPointSet([0, 1, 1 + 1j], [1.0] * 3)
    assert masses_ok(tri, complex_median(tri))
    atom = WeightedPointSet([0.5 - 0.25j], [3.0])
    f = complex_median(atom)
    assert np.all(quadrant_masses(atom, f) == 3.0)


def test_median_random_batch(rng):
    med.stats.reset()
    for _ in range(250):
        n = int(rng.integers(1, 70))
        pts = WeightedPointSet(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                               rng.uniform(0.25, 2.0, n))
        assert masses_ok(pts, complex_median(pts))
    assert med.stats.fallbacks == 0


def test_median_degenerate_families(rng):
    med.stats.reset()
    for t in range(200):
        kind = t % 4
        if kind == 0:  # duplicates
            n = int(rng.integers(2, 25))
            pts = WeightedPointSet(np.repeat(complex(rng.standard_normal(),
                                                     rng.standard_normal()), n),
                                   np.full(n, 0.5))
        elif kind == 1:  # collinear, random direction
            n = int(rng.integers(2, 40))
            d = np.exp(1j * rng.uniform(0, np.pi))
            pts = WeightedPointSet(rng.standard_normal(n) * d + 1j * 0.3,
                                   rng.integers(1, 4, n) * 0.25)
        elif kind == 2:  # lattice ties
            n = int(rng.integers(4, 50))
            z = (rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)).astype(complex) * 0.5
            pts = WeightedPointSet(z, rng.integers(1, 4, n) * 0.5)
        else:  # near-degenerate clusters
            n = int(rng.integers(4, 30))
            centers = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pts = WeightedPointSet(rng.choice(centers, n)
                                   + 1e-13 * rng.standard_normal(n), np.ones(n))
        assert masses_ok(pts, complex_median(pts))
    assert med.stats.fallbacks == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 40))
def test_median_property(seed, n):
    rng = np.random.default_rng(seed)
    pts = WeightedPointSet(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                           rng.uniform(0.1, 3.0, n))
    assert masses_ok(pts, complex_median(pts))


def test_equivariance_certificates(rng):
    # the transformed frame of the original set certifies the transformed set
    for _ in range(40):
        n = int(rng.integers(3, 40))
        pts = WeightedPointSet(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                               rng.uniform(0.5, 1.5, n))
        frame = complex_median(pts)
        a = complex(rng.standard_normal(), rng.standard_normal())
        if abs(a) < 0.1:
            a = 1.0 + 0.5j
        b = complex(rng.standard_normal(), rng.standard_normal())
        moved = WeightedPointSet(a * pts.z + b, pts.w)
        rot = np.angle(a)
        theta_new = (frame.theta + rot) % math.pi
        center_new = a * frame.center + b
        flip = (frame.theta + rot) % (2 * math.pi) >= math.pi
        new = med._frame_from_two_points(theta_new, center_new, center_new)
        assert masses_ok(moved, new)


def test_boundary_atom_in_all_quadrants():
    frame = QuadrantFrame(0.0, 0.0, 0.0)
    pts = WeightedPointSet([0.0, 2.0 + 2.0j], [1.0, 1.0])
    masses = quadrant_masses(pts, frame)
    assert np.allclose(masses, [2.0, 1.0, 1.0, 1.0])


def test_far_frame_single_quadrant():
    frame = QuadrantFrame(0.0, -10.0, -10.0)  # center far down-left
    pts = WeightedPointSet([1 + 1j, 2 + 3j], [1.0, 2.0])
    masses = quadrant_masses(pts, frame)
    assert masses.max() == 3.0 and sorted(masses)[:3] == [0.0, 0.0, 0.0]


def test_masses_match_sign_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(1, 30))
        pts = WeightedPointSet(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                               rng.uniform(0.1, 1.0, n))
        frame = QuadrantFrame(float(rng.uniform(0, np.pi)),
                              float(rng.standard_normal()),
                              float(rng.standard_normal()))
        masses = quadrant_masses(pts, frame)
        u = med._direction(frame.theta)
        s = (pts.z * np.conj(u)).real - frame.c2
        t = (pts.z * np.conj(1j * u)).real - frame.c1
        tol = 1e-12 * max(pts.scale(), abs(frame.c1), abs(frame.c2), 1.0)
        expect = [pts.w[(s >= -tol) & (t >= -tol)].sum(),
                  pts.w[(s <= tol) & (t >= -tol)].sum(),
                  pts.w[(s <= tol) & (t <= tol)].sum(),
                  pts.w[(s >= -tol) & (t <= tol)].sum()]
        assert np.allclose(masses, expect)


def test_quadrant_sets_trivial():
    theta, alpha, e_sets, f_sets = quadrant_sets(np.array([1 + 1j, 2.0]),
                                                 np.full(4, 5.0 + 1j))
    assert alpha == pytest.approx(5.0 + 1j)
    for s in range(4):
        assert len(f_sets[s]) == 4  # constant values land in every closed cone


def test_quadrant_sets_symmetric():
    vh = np.array([1.0, -1.0, 1j, -1j])
    theta, alpha, e_sets, f_sets = quadrant_sets(np.array([0.5]), vh, 1.0)
    masses = [len(f) / 4.0 for f in f_sets]
    assert all(m >= 1 / 16 for m in masses)


def test_quadrant_sets_inequalities(rng):
    worst = -np.inf
    for _ in range(150):
        ni, nh = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        vi = rng.standard_normal(ni) + 1j * rng.standard_normal(ni)
        vh = rng.standard_normal(nh) + 1j * rng.standard_normal(nh)
        theta, alpha, e_sets, f_sets = quadrant_sets(vi, vh)
        rot = np.exp(1j * theta)
        union = set()
        for s in range(4):
            union |= set(e_sets[s].tolist())
            spin = rot * np.exp(-1j * s * np.pi / 2)
            for xi in e_sets[s]:
                for xh in f_sets[s]:
                    dz = vi[xi] - vh[xh]
                    worst = max(worst, abs(vi[xi] - alpha) - 2 * abs(dz))
                    w = spin * dz
                    worst = max(worst, abs(w) - 2 * w.real)
                    worst = max(worst, abs(w.imag) - w.real)
        assert union == set(range(ni))  # the cones cover the near cube
    assert worst <= 1e-9


# -- the per-search memo of base-point intervals and failed attempts


def _intervals_reference(data, x):
    """The S1 / S4 rho-intervals at x, computed afresh with the apex masks."""
    out = []
    for idx, q, sign in ((data.s1, data.q1, 1.0), (data.s4, data.q4, -1.0)):
        z, w = data.z[idx], data.w[idx]
        apex = np.abs(z - x) <= 1e-15 * data.scale
        ang = np.arctan2(np.maximum(sign * z.imag, 0.0)[~apex], (z.real - x)[~apex])
        lo, hi, i, j = med._quarter_interval(ang, w[~apex], w[apex].sum(), q)
        kept = idx[~apex]
        atom_i = int(kept[i]) if i >= 0 else -1
        atom_j = int(kept[j]) if j >= 0 else -1
        out.append((lo, hi, atom_i, atom_j) if sign > 0
                   else (math.pi - hi, math.pi - lo, atom_j, atom_i))
    return tuple(out)


def test_memoized_intervals_equal_fresh_computation(rng):
    upper = rng.standard_normal(12) + 1j * np.abs(rng.standard_normal(12))
    lower = rng.standard_normal(12) - 1j * np.abs(rng.standard_normal(12))
    base_line = np.array([-1.5, -0.5, 0.5, 1.0, 1.0])  # atoms on the base line
    apex = np.array([0.0, -0.0, 0.25 + 1e-17j])  # atoms at the base points 0 and 0.25
    for c in (0.0, -0.75):
        z = np.concatenate([upper, lower, base_line, apex]) + 1j * c
        pts = WeightedPointSet(z, rng.uniform(0.5, 2.0, z.size))
        data = med._SplitData(pts, c, 0.75, -0.75)
        xs = [0.0, -0.0, 0.25, 0.5, 1.0, -1.5, *rng.standard_normal(6), *data.z.real]
        for x in xs + xs[::-1]:  # the second pass reads the memo
            assert data.intervals(x) == _intervals_reference(data, x)
        assert {k for k in data._memo if k[0] == 0.0} == {(0.0, 1.0), (0.0, -1.0)}


def _median_suite_sets(rng, n_sets):
    """Point sets of the five kinds `checks.median_suite` draws, in its order."""
    for t in range(n_sets):
        kind = t % 5
        if kind == 0:
            n = int(rng.integers(1, 80))
            yield WeightedPointSet(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                   rng.uniform(0.25, 2.0, n))
        elif kind == 1:
            n = int(rng.integers(1, 20))
            base = complex(rng.standard_normal(), rng.standard_normal())
            yield WeightedPointSet(np.repeat(base, n), np.full(n, 0.5))
        elif kind == 2:
            n = int(rng.integers(2, 50))
            d = np.exp(1j * rng.uniform(0, np.pi))
            yield WeightedPointSet(
                rng.standard_normal(n) * d + complex(rng.standard_normal(), rng.standard_normal()),
                rng.integers(1, 5, n) * 0.25)
        elif kind == 3:
            n = int(rng.integers(4, 60))
            z = (rng.integers(-4, 5, n) + 1j * rng.integers(-4, 5, n)).astype(complex) * 0.5
            yield WeightedPointSet(z, rng.integers(1, 4, n) * 0.5)
        else:
            n = int(rng.integers(4, 40))
            centers = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z = rng.choice(centers, n) + 1e-13 * (rng.standard_normal(n)
                                                  + 1j * rng.standard_normal(n))
            yield WeightedPointSet(z, np.ones(n))


def test_median_frames_do_not_depend_on_the_memo(rng, monkeypatch):
    sets = list(_median_suite_sets(rng, 250))
    calls = []
    fresh_side = med._SplitData._side_interval

    def counted(self, *args):
        calls.append(1)
        return fresh_side(self, *args)

    monkeypatch.setattr(med._SplitData, "_side_interval", counted)
    med.stats.reset()
    memo = [complex_median(pts) for pts in sets]
    memo_counts = (med.stats.fallbacks, med.stats.boundary_cases, len(calls))
    calls.clear()
    monkeypatch.setattr(med, "_exact_key", lambda x: object())  # no key ever matches
    med.stats.reset()
    assert [complex_median(pts) for pts in sets] == memo
    assert (med.stats.fallbacks, med.stats.boundary_cases) == memo_counts[:2]
    assert memo_counts[2] < len(calls)


# Paths of `complex_median` that the point sets above never take.  Each test
# reaches one, checks that the returned frame is certified and that
# `med.stats` counts the call, its fallbacks and its boundary cases.


def _certified_with_counts(pts, fallbacks, boundary):
    med.stats.reset()
    frame = complex_median(pts)
    assert med._certify(pts, frame)[0]
    assert (med.stats.calls, med.stats.fallbacks, med.stats.boundary_cases) == \
        (1, fallbacks, boundary)
    return frame


@pytest.mark.parametrize("z,w,reached", [
    ([-1j, 1j, -1 - 1j, 1j], [2, 2, 3, 3], 1),  # the projection median
    # an atom projection between the two ray origins
    (np.array([2 - 2j, -1 + 1j, -1 - 2j, 1 - 2j, 1 - 2j, 2j, -1 + 1j]) * 0.5 + 1 / 3,
     [3, 3, 4, 2, 4, 1, 4], 2),
])
def test_offsets_past_the_midpoint(monkeypatch, z, w, reached):
    drawn = []
    offsets = med._offsets

    def counted(*args):
        for i, c2 in enumerate(offsets(*args)):
            drawn.append(i)
            yield c2

    monkeypatch.setattr(med, "_offsets", counted)
    _certified_with_counts(WeightedPointSet(z, w), 0, 0)
    assert max(drawn) == reached


def _spy(monkeypatch, name, calls):
    fn = getattr(med, name)

    def spied(*args):
        out = fn(*args)
        calls.append((name, args, out))
        return out

    monkeypatch.setattr(med, name, spied)


def test_axes_frame_that_fails_its_certificate(monkeypatch):
    # the conditional median intervals share 0 here, so the axes frame is tried
    # first; rejected, the search runs with both ray origins at that point
    pts = WeightedPointSet([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j, 0.5j], [1, 1, 1, 1, 1])
    certify, calls = med._certify, []

    def reject_first(p, f):
        if not calls:
            calls.append(f)
            return False, None
        return certify(p, f)

    monkeypatch.setattr(med, "_certify", reject_first)
    _spy(monkeypatch, "_search_frame", calls)
    _certified_with_counts(pts, 0, 0)
    (_, (work, c, a1, a2), frame), = calls[1:]
    assert work is pts and a1 == a2 and frame is not None
    assert calls[0].theta == math.pi / 2


@pytest.mark.parametrize("z,mirrored", [
    ([0, -1, 0, -1 + 0.5j, -1, -0.5 - 0.5j, 0], False),
    ([0, 1, 0, 1 + 0.5j, 1, 0.5 - 0.5j, 0], True),  # the same set, mirrored
])
def test_search_failure_falls_back(monkeypatch, z, mirrored):
    calls = []
    monkeypatch.setattr(med, "_search_frame", lambda *args: None)
    _spy(monkeypatch, "_fallback_frame", calls)
    pts = WeightedPointSet(z, [4, 4, 1, 1, 3, 1, 2])
    _certified_with_counts(pts, 1, 0)
    (_, (work, *_), frame), = calls
    assert (work is not pts) == mirrored and frame is not None


def test_mirrored_frame_that_fails_its_certificate(monkeypatch):
    # the upper conditional median lies right of the lower one, so the search
    # runs on the mirrored set; its frame, mapped back, is rejected once
    pts = WeightedPointSet([0, 1, 0, 1 + 0.5j, 1, 0.5 - 0.5j, 0], [4, 4, 1, 1, 3, 1, 2])
    certify, rejected, calls = med._certify, [], []

    def once_on_pts(p, f):
        if p is pts and not rejected:
            rejected.append(f)
            return False, None
        return certify(p, f)

    monkeypatch.setattr(med, "_certify", once_on_pts)
    monkeypatch.setattr(med, "_search_frame",
                        lambda work, *args: med._fallback_frame(work, *args))
    _spy(monkeypatch, "_fallback_frame", calls)
    _certified_with_counts(pts, 1, 0)
    assert len(rejected) == 1
    assert [args[0] is pts for _, args, _ in calls] == [False, True]


@pytest.mark.parametrize("z,w,found", [
    # half of S1's mass sits on the ray from 0 at angle pi/4
    ([1 + 1j, 2 + 2j, 3 + 3j, -1 - 1j, -2 - 2j, 1 - 1j, -1 + 1j], [1] * 7, True),
    ([2 - 1j, 2, 1j], [2, 1, 3], True),
    (np.concatenate([np.exp(0.3j) * np.arange(1, 6), -np.exp(1.1j) * np.arange(1, 6)]),
     [1] * 10, False),
])
def test_ray_concentration_frame(monkeypatch, z, w, found):
    # every base-point attempt fails, so the search ends at the ray construction
    calls = []
    monkeypatch.setattr(med, "_try_frames_at", lambda *args: None)
    _spy(monkeypatch, "_ray_concentration_frame", calls)
    _spy(monkeypatch, "_fallback_frame", calls)
    _certified_with_counts(WeightedPointSet(z, w), 0 if found else 1, 1 if found else 0)
    assert [name for name, _, _ in calls] == \
        ["_ray_concentration_frame"] + ([] if found else ["_fallback_frame"])
    assert (calls[0][2] is not None) == found

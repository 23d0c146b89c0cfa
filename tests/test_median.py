import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parahaar.median as med
from parahaar.checks import _cube_pair_draws, _median_draws
from parahaar.cli import _median_verify_sets as _median_verify_sets_of
from parahaar.median import (QuadrantFrame, WeightedPointSet, complex_median,
                             complex_medians, halfplane_median, quadrant_masses,
                             quadrant_sets, quadrant_split)


def masses_ok(pts, frame, factor=16.0):
    masses = quadrant_masses(pts, frame)
    return bool(np.all(masses >= pts.total / factor - 1e-12 * max(1.0, pts.total)))


def test_empty_rejected():
    with pytest.raises(ValueError):
        WeightedPointSet([], [])
    with pytest.raises(ValueError):
        WeightedPointSet([1.0], [0.0])


@pytest.mark.parametrize("bad_point,bad_weight", [
    (np.inf, 1.0), (complex(0, -np.inf), 1.0), (complex(np.nan, 0), 1.0),
    (0.5j, np.nan), (0.5j, np.inf),
])
def test_non_finite_rejected(rng, bad_point, bad_weight):
    # accepted, a NaN weight would drive the exhaustive O(n^4) fallback, and
    # an infinite point would get a frame certified on meaningless masses
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    w = np.ones(64)
    z[7], w[7] = bad_point, bad_weight
    with pytest.raises(ValueError, match="finite"):
        WeightedPointSet(z, w)


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
    (theta, alpha, e_sets, f_sets), = quadrant_sets([(np.array([1 + 1j, 2.0]),
                                                      np.full(4, 5.0 + 1j), 1.0)])
    assert alpha == pytest.approx(5.0 + 1j)
    for s in range(4):
        assert len(f_sets[s]) == 4  # constant values land in every closed cone


def test_quadrant_sets_symmetric():
    vh = np.array([1.0, -1.0, 1j, -1j])
    (theta, alpha, e_sets, f_sets), = quadrant_sets([(np.array([0.5]), vh, 1.0)])
    masses = [len(f) / 4.0 for f in f_sets]
    assert all(m >= 1 / 16 for m in masses)


def test_quadrant_sets_inequalities(rng):
    worst = -np.inf
    for _ in range(150):
        ni, nh = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        vi = rng.standard_normal(ni) + 1j * rng.standard_normal(ni)
        vh = rng.standard_normal(nh) + 1j * rng.standard_normal(nh)
        (theta, alpha, e_sets, f_sets), = quadrant_sets([(vi, vh, 1.0)])
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


# -- the base-point intervals of one search


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


def test_split_intervals_equal_fresh_computation(rng):
    upper = rng.standard_normal(12) + 1j * np.abs(rng.standard_normal(12))
    lower = rng.standard_normal(12) - 1j * np.abs(rng.standard_normal(12))
    base_line = np.array([-1.5, -0.5, 0.5, 1.0, 1.0])  # atoms on the base line
    apex = np.array([0.0, -0.0, 0.25 + 1e-17j])  # atoms at the base points 0 and 0.25
    for c in (0.0, -0.75):
        z = np.concatenate([upper, lower, base_line, apex]) + 1j * c
        pts = WeightedPointSet(z, rng.uniform(0.5, 2.0, z.size))
        data = med._SplitData(pts, c, 0.75, -0.75)
        xs = [0.0, -0.0, 0.25, 0.5, 1.0, -1.5, *rng.standard_normal(6), *data.z.real]
        for x in xs:
            assert data.intervals(x) == _intervals_reference(data, x)


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
    (_, (work, c, a1, a2, bracket), frame), = calls[1:]
    assert work is pts and a1 == a2 and bracket is None and frame is not None
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
                        lambda work, c, a1, a2, bracket: med._fallback_frame(work, c, a1, a2))
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


def test_search_goes_on_past_a_failed_touching_base_point():
    # the intervals at the lower conditional median touch, but no frame there
    # is certified; the search tries its candidates and the ray construction
    # instead of giving up, and the fallback is not reached
    pts = WeightedPointSet([0, 1, 0, 1 + 0.5j, 1, 0.5 - 0.5j, 0], [4, 4, 1, 1, 3, 1, 2])
    _certified_with_counts(pts, 0, 1)


# -- many searches in lockstep: complex_medians against complex_median


def _experiment_configs(seed):
    """perfbench/workloads.experiment_configs, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.experiment_configs(seed)


def _median_verify_sets(seed):
    """The point sets of the benchmark's median-verify config at `seed`."""
    cfg = next(c for c in _experiment_configs(seed) if c["experiment"] == "median-verify")
    return _median_verify_sets_of(cfg["trials"], np.random.default_rng(cfg["seed"]))


_RARE_PATH_SETS = [
    ([-1j, 1j, -1 - 1j, 1j], [2, 2, 3, 3]),
    (np.array([2 - 2j, -1 + 1j, -1 - 2j, 1 - 2j, 1 - 2j, 2j, -1 + 1j]) * 0.5 + 1 / 3,
     [3, 3, 4, 2, 4, 1, 4]),
    ([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j, 0.5j], [1, 1, 1, 1, 1]),
    ([0, -1, 0, -1 + 0.5j, -1, -0.5 - 0.5j, 0], [4, 4, 1, 1, 3, 1, 2]),
    ([0, 1, 0, 1 + 0.5j, 1, 0.5 - 0.5j, 0], [4, 4, 1, 1, 3, 1, 2]),
    ([1 + 1j, 2 + 2j, 3 + 3j, -1 - 1j, -2 - 2j, 1 - 1j, -1 + 1j], [1] * 7),
    ([2 - 1j, 2, 1j], [2, 1, 3]),
    (np.concatenate([np.exp(0.3j) * np.arange(1, 6), -np.exp(1.1j) * np.arange(1, 6)]), [1] * 10),
    ([1, -1, 1j, -1j], [1] * 4),
    ([0, 1, 1 + 1j], [1] * 3),
    ([0.5 - 0.25j], [3.0]),
]


def _corpus(name):
    if name.startswith("suite-"):
        # the median suite's draws: its 1000 point sets, then its 500 cube pairs
        rng = np.random.default_rng(20240804)
        sets, _ = _median_draws(rng, range(1000))
        if name == "suite-sets":
            return sets
        return [WeightedPointSet(vh, np.full(vh.size, m / vh.size))
                for _, vh, m in _cube_pair_draws(rng, 500)]
    if name.startswith("verify-"):
        return _median_verify_sets(int(name[len("verify-"):]))
    if name == "test-suite-sets":
        return list(_median_suite_sets(np.random.default_rng(20240911), 500))
    return [WeightedPointSet(z, w) for z, w in _RARE_PATH_SETS]


def _per_set(sets):
    """Frames and stats counts of one complex_median call per set."""
    med.stats.reset()
    frames = [complex_median(pts) for pts in sets]
    return frames, (med.stats.calls, med.stats.fallbacks, med.stats.boundary_cases)


def _lockstep(sets):
    med.stats.reset()
    frames = complex_medians(sets)
    return frames, (med.stats.calls, med.stats.fallbacks, med.stats.boundary_cases)


@pytest.mark.parametrize("name", ["suite-sets", "suite-pairs", "verify-11", "verify-12",
                                  "test-suite-sets", "rare-paths"])
def test_lockstep_frames_equal_per_set_frames(name):
    sets = _corpus(name)
    assert _lockstep(sets) == _per_set(sets)


def test_lockstep_frames_do_not_depend_on_the_chunk(monkeypatch):
    sets = _corpus("suite-sets")[:300] + _corpus("verify-11")[:300]
    frames = _lockstep(sets)
    order = np.random.default_rng(7).permutation(len(sets))
    for block in (1, 7, 64):
        monkeypatch.setattr(med, "_SET_BLOCK", block)
        shuffled, counts = _lockstep([sets[i] for i in order])
        assert (shuffled, counts) == ([frames[0][i] for i in order], frames[1])


def test_lockstep_route_finishes_the_common_searches(monkeypatch):
    # a set leaves the route where the per-set search goes past the first
    # frame at its first base point with an overlap; one whose bisection ended
    # without an overlap resumes at its bracket, and only the rest (a first
    # frame that fails, an empty S1 or S4) start the per-set search again
    restarts = []
    per_set = med._median

    def counted(pts, bracket):
        if bracket is None:
            restarts.append(pts)
        return per_set(pts, bracket)

    monkeypatch.setattr(med, "_median", counted)
    for sets in (_median_verify_sets(11), _median_verify_sets(12), _corpus("suite-sets")):
        restarts.clear()
        complex_medians(sets)
        assert len(restarts) <= 10


def test_resumed_searches_start_at_their_bracket(monkeypatch):
    # a set that leaves the lockstep with its bracket goes straight to the
    # candidates: xl, xh and their midpoint, not A and B or a new bisection
    searches, search, try_at = [], med._search_frame, med._try_frames_at

    def searched(work, c, a1, a2, bracket):
        searches.append((bracket, []))
        return search(work, c, a1, a2, bracket)

    def tried(work, data, c, a1, a2, x):
        searches[-1][1].append(x)
        return try_at(work, data, c, a1, a2, x)

    monkeypatch.setattr(med, "_search_frame", searched)
    monkeypatch.setattr(med, "_try_frames_at", tried)
    complex_medians(_corpus("suite-sets"))
    resumed = [(bracket, xs) for bracket, xs in searches if bracket is not None]
    assert len(resumed) >= 100
    for (xl, xh), xs in resumed:
        assert xs and xs[:3] == [xl, xh, 0.5 * (xl + xh)][:len(xs)]


def test_lockstep_search_memory():
    sets = _median_verify_sets(11)
    tracemalloc.start()
    try:
        complex_medians(sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_row_sums_equal_compressed_sums(rng):
    for width in (1, 7, 8, 9, 63, 130, 300):
        w = rng.uniform(0.01, 3.0, (40, width)) * rng.choice([1.0, 1e-9, 1e7], (40, width))
        mask = rng.random((3, 40, width)) < rng.random((3, 40, 1))
        expect = [[w[i][mask[q, i]].sum() for i in range(40)] for q in range(3)]
        assert med._row_sums(w, mask).tolist() == expect


def test_row_certificate_decides_as_the_mass_kernel(rng):
    # totals chosen so that the threshold sits within rounding of a quadrant
    # mass, where a padded row sum and the compressed sum can disagree
    for _ in range(200):
        n = int(rng.integers(1, 40))
        pts = WeightedPointSet(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                               rng.uniform(0.1, 1.0, n) * 10.0 ** rng.integers(-3, 4, n))
        frame = QuadrantFrame(float(rng.uniform(0, np.pi)), float(rng.standard_normal()) * 0.3,
                              float(rng.standard_normal()) * 0.3)
        masses = quadrant_masses(pts, frame)
        for target in (pts.total / 16.0, masses.min(), np.nextafter(masses.min(), 0), 1e-300):
            total = np.array([16.0 * target / (1.0 - 16e-12)])
            for nudge in (-1, 0, 1):
                t = total if nudge == 0 else np.nextafter(total, np.inf * nudge)
                need = t[0] / 16.0 - 1e-12 * max(1.0, t[0])
                got = med._row_certified(pts.z[None], pts.w[None], t, [frame])
                assert got.tolist() == [bool(np.all(masses >= need))]

import numpy as np

from parahaar import accel


def _quadrant_masses_loop(re, im, w, ux, uy, qx, qy, tol):
    """Per point: rotate into the frame; within tol of a line counts on both sides."""
    u = complex(ux, uy)
    out = [0.0] * 4
    for x, y, wk in zip(re, im, w):
        z = (complex(x, y) - complex(qx, qy)) * u.conjugate()
        right, left = z.real >= -tol, z.real <= tol
        up, down = z.imag >= -tol, z.imag <= tol
        for q, inside in enumerate((right and up, left and up, left and down, right and down)):
            if inside:
                out[q] += wk
    return np.array(out)


def test_quadrant_masses_match_point_loop(rng):
    for _ in range(50):
        n = int(rng.integers(1, 200))
        ang = rng.uniform(0, np.pi)
        u = np.exp(1j * ang)
        q = complex(rng.standard_normal(), rng.standard_normal())
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # some points on the lines and one at the centre
        k = n // 4
        z[:k] = q + u * rng.standard_normal(k) * np.where(rng.integers(0, 2, k), 1, 1j)
        z[-1] = q
        w = rng.uniform(0.1, 2.0, n)
        args = (z.real, z.imag, w, u.real, u.imag, q.real, q.imag, 1e-12)
        masses = accel.quadrant_masses_kernel(*args)
        assert np.allclose(masses, _quadrant_masses_loop(*args), rtol=1e-13, atol=0)
        assert masses.sum() >= w.sum() + 3 * w[-1] - 1e-12


def test_pair_weights_match_two_cell_sum(rng):
    mids = rng.uniform(0, 1, (6, 4, 2))
    vol, power = 0.01, 4.0
    got = accel.pair_power_weights(mids, vol, power)
    assert np.all(np.diag(got) == 0.0)
    for a in range(6):
        for b in range(6):
            if a != b:
                acc = sum(float(np.sum((x - y) ** 2)) ** (-power / 2)
                          for x in mids[a] for y in mids[b])
                assert np.isclose(got[a, b], vol * vol * acc, rtol=1e-12, atol=0)


def _pair_power_weights_loop(mids, vol, power):
    """One numpy sum per ordered cell pair: the reference the kernel must equal bit for bit."""
    ncell = mids.shape[0]
    out = np.zeros((ncell, ncell))
    for a in range(ncell):
        for b in range(ncell):
            if a != b:
                diff = mids[a][:, None, :] - mids[b][None, :, :]
                r2 = (diff * diff).sum(axis=2)
                out[a, b] = vol * vol * (r2 ** (-power / 2.0)).sum()
    return out


def test_pair_weights_equal_pair_loop_bitwise(rng):
    from parahaar.norms import cell_midgrids

    cases = [(rng.uniform(0, 1, (9, 7, dim)), dim) for dim in (1, 2, 3)]
    cases += [(np.ascontiguousarray(cell_midgrids(n, dim, 4).astype(float)), dim)
              for n, dim in ((16, 1), (4, 2))]
    for mids, dim in cases:
        vol = 0.013**dim  # not a power of 2, so the order of the products shows
        got = accel.pair_power_weights(mids, vol, 2.0 * dim)
        assert np.array_equal(got, _pair_power_weights_loop(mids, vol, 2.0 * dim)), mids.shape

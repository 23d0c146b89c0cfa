import numpy as np

from parahaar import accel, norms
from parahaar.norms import cell_midgrids


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


def test_quadrant_masks_broadcast_one_frame_per_row(rng):
    # the frames as columns against rows of points: each row's masks are
    # those of its own frame alone
    z = rng.standard_normal((5, 30)) + 1j * rng.standard_normal((5, 30))
    u = np.exp(1j * rng.uniform(0, np.pi, 5))[:, None]
    q = (rng.standard_normal(5) + 1j * rng.standard_normal(5))[:, None]
    z[:, 0] = q[:, 0]  # each centre in all four quadrants
    masks = np.stack(accel.quadrant_masks(z.real, z.imag, u.real, u.imag, q.real, q.imag, 1e-12))
    assert masks.shape == (4, 5, 30) and masks[:, :, 0].all()
    for r in range(5):
        row = accel.quadrant_masks(z[r].real, z[r].imag, u[r, 0].real, u[r, 0].imag,
                                   q[r, 0].real, q[r, 0].imag, 1e-12)
        assert np.array_equal(masks[:, r], np.stack(row))


def test_pair_weights_match_two_cell_sum():
    # the continuum form's weights against the double sum over subcell
    # midpoints: |subcell|^2 sum |x - y|^(-2 dim) per pair of distinct cells
    refinement = 2
    for cells_per_axis, dim in ((6, 1), (3, 2), (2, 3)):
        mids = cell_midgrids(cells_per_axis, dim, refinement)
        vol = (1.0 / cells_per_axis / refinement) ** dim
        got = norms._grid_weights(cells_per_axis, dim, refinement)
        assert np.all(np.diag(got) == 0.0)
        for a in range(len(mids)):
            for b in range(len(mids)):
                if a != b:
                    acc = sum(float(np.sum((x - y) ** 2)) ** -dim for x in mids[a] for y in mids[b])
                    assert np.isclose(got[a, b], vol * vol * acc, rtol=1e-12, atol=0), (dim, a, b)

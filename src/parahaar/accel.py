"""Hot numeric kernels of the median search and the continuum Besov form."""

import numpy as np


def quadrant_masses_kernel(re, im, w, ux, uy, qx, qy, tol):
    """Masses of the four closed quadrants of the frame through (qx, qy).

    The frame's lines run along (ux, uy) and its normal; a point within `tol`
    of a line counts in every quadrant adjacent to it.
    """
    # side coordinates relative to the two orthogonal lines through (qx, qy)
    s = (re - qx) * ux + (im - qy) * uy
    t = -(re - qx) * uy + (im - qy) * ux
    sp = s >= -tol
    sm = s <= tol
    tp = t >= -tol
    tm = t <= tol
    out = np.empty(4)
    out[0] = w[sp & tp].sum()
    out[1] = w[sm & tp].sum()
    out[2] = w[sm & tm].sum()
    out[3] = w[sp & tm].sum()
    return out


def pair_power_weights(mids, vol, power):
    """vol^2 * sum over subcell pairs of |x - y|^-power, per ordered cell pair.

    mids: (ncell, nsub, dim) midpoints of the refinement subcells; the
    diagonal (same-cell pairs) is 0.  One row a at a time against every other
    cell b: squared distances add axis by axis in axis order, and each pair's
    nsub x nsub terms are summed as one contiguous block, so every entry is
    the same floating-point sum as a per-pair loop gives.
    """
    ncell, nsub, dim = mids.shape
    coords = [np.ascontiguousarray(mids[:, :, t]) for t in range(dim)]
    out = np.zeros((ncell, ncell))
    for a in range(ncell):
        others = np.arange(ncell) != a
        r2 = np.zeros((ncell - 1, nsub, nsub))
        for x in coords:
            diff = x[a][None, :, None] - x[others][:, None, :]
            r2 += diff * diff
        terms = (r2 ** (-power / 2.0)).reshape(ncell - 1, nsub * nsub)
        out[a, others] = vol * vol * terms.sum(axis=1)
    return out

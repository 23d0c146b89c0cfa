"""Hot numeric kernel of the median search: closed-quadrant masses."""

import numpy as np


def quadrant_masks(re, im, ux, uy, qx, qy, tol):
    """The four masks of the points in the closed quadrants of the frame
    through (qx, qy); the frame broadcasts against the points.  Its lines
    run along (ux, uy) and its normal, and a point within `tol` of a line
    lies in every quadrant adjacent to it."""
    # side coordinates relative to the two orthogonal lines through (qx, qy)
    s = (re - qx) * ux + (im - qy) * uy
    t = -(re - qx) * uy + (im - qy) * ux
    sp, sm, tp, tm = s >= -tol, s <= tol, t >= -tol, t <= tol
    return sp & tp, sm & tp, sm & tm, sp & tm


def quadrant_masses_kernel(re, im, w, ux, uy, qx, qy, tol):
    """Masses of the four closed quadrants of `quadrant_masks`."""
    return np.array([w[mask].sum() for mask in quadrant_masks(re, im, ux, uy, qx, qy, tol)])

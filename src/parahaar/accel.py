"""Hot numeric kernels, JIT-compiled with numba when available.

Set ``PARAHAAR_NO_NUMBA=1`` to force the pure-numpy fallbacks (the two paths
compute identical results; ``tests/test_accel.py`` compares them).
"""

import os

import numpy as np

_DISABLE = os.environ.get("PARAHAAR_NO_NUMBA", "0") not in ("", "0")

try:
    if _DISABLE:
        raise ImportError
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


def _quadrant_masses_py(re, im, w, ux, uy, qx, qy, tol):
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


@njit(cache=True)
def _quadrant_masses_nb(re, im, w, ux, uy, qx, qy, tol):  # pragma: no cover
    out = np.zeros(4)
    for k in range(re.shape[0]):
        s = (re[k] - qx) * ux + (im[k] - qy) * uy
        t = -(re[k] - qx) * uy + (im[k] - qy) * ux
        if s >= -tol and t >= -tol:
            out[0] += w[k]
        if s <= tol and t >= -tol:
            out[1] += w[k]
        if s <= tol and t <= tol:
            out[2] += w[k]
        if s >= -tol and t <= tol:
            out[3] += w[k]
    return out


def _pair_power_weights_py(mids, vol, power):
    # mids: (ncell, nsub, dim) midpoints of the refinement subcells
    ncell = mids.shape[0]
    out = np.zeros((ncell, ncell))
    for a in range(ncell):
        for b in range(ncell):
            if a == b:
                continue
            diff = mids[a][:, None, :] - mids[b][None, :, :]
            r2 = (diff * diff).sum(axis=2)
            out[a, b] = vol * vol * (r2 ** (-power / 2.0)).sum()
    return out


@njit(cache=True)
def _pair_power_weights_nb(mids, vol, power):  # pragma: no cover
    ncell, nsub, dim = mids.shape
    out = np.zeros((ncell, ncell))
    for a in range(ncell):
        for b in range(ncell):
            if a == b:
                continue
            acc = 0.0
            for i in range(nsub):
                for j in range(nsub):
                    r2 = 0.0
                    for t in range(dim):
                        d = mids[a, i, t] - mids[b, j, t]
                        r2 += d * d
                    acc += r2 ** (-power / 2.0)
            out[a, b] = vol * vol * acc
    return out


if HAVE_NUMBA:
    quadrant_masses_kernel = _quadrant_masses_nb
    pair_power_weights = _pair_power_weights_nb
else:
    quadrant_masses_kernel = _quadrant_masses_py
    pair_power_weights = _pair_power_weights_py

# numpy twins stay importable for the benchmark and for equivalence tests
quadrant_masses_numpy = _quadrant_masses_py
pair_power_weights_numpy = _pair_power_weights_py

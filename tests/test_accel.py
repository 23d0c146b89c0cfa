import numpy as np

from parahaar import accel


def test_quadrant_masses_paths_agree(rng):
    for _ in range(50):
        n = int(rng.integers(1, 200))
        re = rng.standard_normal(n)
        im = rng.standard_normal(n)
        w = rng.uniform(0.1, 2.0, n)
        ang = rng.uniform(0, np.pi)
        args = (re, im, w, float(np.cos(ang)), float(np.sin(ang)),
                float(rng.standard_normal()), float(rng.standard_normal()), 1e-12)
        assert np.allclose(accel.quadrant_masses_kernel(*args),
                           accel.quadrant_masses_numpy(*args))


def test_pair_weights_paths_agree(rng):
    mids = rng.uniform(0, 1, (6, 4, 2))
    a = accel.pair_power_weights(np.ascontiguousarray(mids), 0.01, 4.0)
    b = accel.pair_power_weights_numpy(mids, 0.01, 4.0)
    assert np.allclose(a, b, rtol=1e-12)
    assert np.allclose(np.diag(a), 0.0)

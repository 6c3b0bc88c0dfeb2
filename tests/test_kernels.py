import numpy as np

from jsrkit import _kernels


def test_polygon_gauge_euclidean_circle():
    m = 256
    theta = 2.0 * np.pi * np.arange(m) / m
    vx, vy = np.cos(theta), np.sin(theta)
    rng = np.random.default_rng(9)
    q = rng.normal(size=(100, 2))
    gauge = _kernels.polygon_gauge(q[:, 0], q[:, 1], vx, vy)
    radii = np.hypot(q[:, 0], q[:, 1])
    assert np.allclose(gauge, radii, rtol=1e-3)

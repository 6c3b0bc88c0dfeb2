"""Numerical hot loop with two interchangeable backends.

The kernel exists as a pure-numpy implementation and, when numba is
importable and the environment variable ``JSRKIT_NO_NUMBA`` is unset, as
an ahead-of-time jitted version.  The flag only selects the backend;
both produce identical results.

* ``polygon_gauge`` -- Minkowski gauge of a convex polygon with vertices
  on uniformly spaced rays, evaluated at a batch of points.  Its numpy
  form is ``polygon_sectors`` followed by ``polygon_gauge_at``; callers
  that reuse the points across polygons call the two directly.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "USE_NUMBA",
    "polygon_gauge",
    "polygon_sectors",
    "polygon_gauge_at",
    "backend_name",
]

_disabled = os.environ.get("JSRKIT_NO_NUMBA", "") not in ("", "0")
try:
    if _disabled:
        raise ImportError
    from numba import njit

    USE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag
    USE_NUMBA = False

    def njit(*args, **kwargs):
        def deco(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return deco


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


def polygon_sectors(qx, qy, m):
    """Sector (j, j+1 mod m) of each point among m uniformly spaced rays.

    Depends only on the points' angles, so a caller that evaluates the
    gauge of many polygons at the same points computes it once.
    """
    two_pi = 2.0 * math.pi
    theta = np.mod(np.arctan2(qy, qx), two_pi)
    j = np.minimum((theta * m / two_pi).astype(np.int64), m - 1)
    return j, (j + 1) % m


def polygon_gauge_at(qx, qy, j, j1, vx, vy):
    """Gauge of the polygon (vx, vy) at points lying in sectors (j, j1)."""
    xj, yj, xj1, yj1 = vx[j], vy[j], vx[j1], vy[j1]
    det = xj * yj1 - yj * xj1
    a = (qx * yj1 - qy * xj1) / det
    b = (xj * qy - yj * qx) / det
    return a + b


def _polygon_gauge_py(qx, qy, vx, vy):
    """Gauge of the polygon with vertex j on the ray at angle 2*pi*j/m."""
    j, j1 = polygon_sectors(qx, qy, vx.shape[0])
    return polygon_gauge_at(qx, qy, j, j1, vx, vy)


@njit(cache=True)
def _polygon_gauge_nb(qx, qy, vx, vy):  # pragma: no cover - jitted
    m = vx.shape[0]
    two_pi = 2.0 * math.pi
    out = np.empty(qx.shape[0])
    for k in range(qx.shape[0]):
        theta = math.atan2(qy[k], qx[k]) % two_pi
        j = int(theta * m / two_pi)
        if j > m - 1:
            j = m - 1
        j1 = (j + 1) % m
        det = vx[j] * vy[j1] - vy[j] * vx[j1]
        a = (qx[k] * vy[j1] - qy[k] * vx[j1]) / det
        b = (vx[j] * qy[k] - vy[j] * qx[k]) / det
        out[k] = a + b
    return out


def polygon_gauge(qx, qy, vx, vy):
    """Batch gauge evaluation; all arguments are 1-d float64 arrays."""
    qx = np.ascontiguousarray(qx, dtype=np.float64)
    qy = np.ascontiguousarray(qy, dtype=np.float64)
    vx = np.ascontiguousarray(vx, dtype=np.float64)
    vy = np.ascontiguousarray(vy, dtype=np.float64)
    if USE_NUMBA:
        return _polygon_gauge_nb(qx, qy, vx, vy)
    return _polygon_gauge_py(qx, qy, vx, vy)

"""Numerical hot loop, in numpy.

* ``polygon_gauge`` -- Minkowski gauge of a convex polygon with vertices
  on uniformly spaced rays, evaluated at a batch of points.  It is
  ``polygon_sectors`` followed by ``polygon_gauge_at``; callers that reuse
  the points across polygons call the two directly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "polygon_gauge",
    "polygon_sectors",
    "polygon_gauge_at",
    "backend_name",
]


def backend_name() -> str:
    # The benchmark worker (perfbench/worker.py) records this name.
    return "numpy"


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


def polygon_gauge(qx, qy, vx, vy):
    """Gauge of the polygon with vertex j on the ray at angle 2*pi*j/m.

    Batch evaluation; all arguments are 1-d float64 arrays.
    """
    qx, qy, vx, vy = (np.asarray(x, dtype=np.float64) for x in (qx, qy, vx, vy))
    j, j1 = polygon_sectors(qx, qy, vx.shape[0])
    return polygon_gauge_at(qx, qy, j, j1, vx, vy)

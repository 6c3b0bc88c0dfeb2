import json
import os
import subprocess
import sys

import numpy as np

from jsrkit import _kernels

_PROBE = r"""
import json, math
import numpy as np
from jsrkit import _kernels

rng = np.random.default_rng(123)
m = 64
theta = 2.0 * math.pi * np.arange(m) / m
vx = np.cos(theta) * (1.0 + 0.2 * np.cos(2 * theta))
vy = np.sin(theta) * (1.0 + 0.2 * np.cos(2 * theta))
q = rng.normal(size=(500, 2))
gauge = _kernels.polygon_gauge(q[:, 0], q[:, 1], vx, vy)

print(json.dumps({
    "backend": _kernels.backend_name(),
    "gauge_sum": float(np.sum(gauge)),
    "gauge_head": [float(x) for x in gauge[:5]],
}))
"""


def _run(no_numba):
    env = dict(os.environ)
    if no_numba:
        env["JSRKIT_NO_NUMBA"] = "1"
    else:
        env.pop("JSRKIT_NO_NUMBA", None)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_backends_agree():
    jit = _run(no_numba=False)
    plain = _run(no_numba=True)
    assert plain["backend"] == "numpy"
    assert plain["gauge_sum"] == jit["gauge_sum"]
    assert plain["gauge_head"] == jit["gauge_head"]


def test_polygon_gauge_euclidean_circle():
    m = 256
    theta = 2.0 * np.pi * np.arange(m) / m
    vx, vy = np.cos(theta), np.sin(theta)
    rng = np.random.default_rng(9)
    q = rng.normal(size=(100, 2))
    gauge = _kernels.polygon_gauge(q[:, 0], q[:, 1], vx, vy)
    radii = np.hypot(q[:, 0], q[:, 1])
    assert np.allclose(gauge, radii, rtol=1e-3)


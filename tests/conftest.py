import numpy as np
import pytest

from jsrkit import MatrixSet, estimate
from jsrkit.families import rotation

GOLDEN = (1.0 + 5.0**0.5) / 2.0


@pytest.fixture
def diag_set():
    """Two commuting diagonal matrices with joint spectral radius 3."""
    return MatrixSet(
        (np.diag([3.0, 1.0]), np.diag([1.0, 3.0])), labels=("A1", "A2")
    )


@pytest.fixture
def nilpotent_pair():
    """Each matrix is nilpotent, but their products alternate to radius 1."""
    a1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    a2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    return MatrixSet((a1, a2))


@pytest.fixture
def shear_pair():
    """The irreducible pair of unit shears; radius is the golden ratio."""
    a1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    a2 = np.array([[1.0, 0.0], [1.0, 1.0]])
    return MatrixSet((a1, a2))


def random_matrix_set(rng, dim=None, size=None, complex_entries=False):
    dim = dim if dim is not None else int(rng.integers(2, 5))
    size = size if size is not None else int(rng.integers(1, 4))
    mats = []
    for _ in range(size):
        m = rng.normal(size=(dim, dim))
        if complex_entries:
            m = m + 1j * rng.normal(size=(dim, dim))
        mats.append(m)
    return MatrixSet(tuple(mats))


def criterion5_case(k):
    """Case k of acceptance criterion 5: a random pair scaled to JSR ~ 1,
    with its enclosure."""
    rng = np.random.default_rng(20250823)
    for _ in range(k + 1):
        mats = [rng.normal(size=(2, 2)) for _ in range(2)]
    ms = MatrixSet(tuple(mats))
    b0 = estimate(ms, target_gap=1e-3, budget=200000, max_depth=40)
    ms = ms.scaled(1.0 / b0.upper)
    return ms, estimate(ms, target_gap=1e-3, budget=200000, max_depth=40)


def hidden_triangular_pair(c=1.0):
    """c * Q T_i Q^T, Q the rotation by 0.6: the triangular pair
    T_1 = [[1, 1.5], [0, 0.4]], T_2 = [[-0.5, -1.2], [0, 0.3]] in a turned
    basis.  Its JSR is c, carried by the upper block [c], [-0.5c]."""
    q = rotation(0.6)
    t = (np.array([[1.0, 1.5], [0.0, 0.4]]), np.array([[-0.5, -1.2], [0.0, 0.3]]))
    return MatrixSet(tuple(c * (q @ a @ q.T) for a in t))

import copy
import pickle

import numpy as np
import pytest

from jsrkit import (
    InputError,
    MatrixSet,
    exterior_square,
    max_entry_norm,
    operator_norm,
    spectral_radius,
)

from conftest import GOLDEN, random_matrix_set


def test_matrix_set_validation():
    with pytest.raises(InputError):
        MatrixSet(())
    with pytest.raises(InputError):
        MatrixSet((np.eye(2), np.eye(3)))
    with pytest.raises(InputError):
        MatrixSet((np.ones((2, 3)),))
    with pytest.raises(InputError):
        MatrixSet((np.eye(2),), labels=("a", "b"))


def test_matrix_set_accepts_fortran_order():
    # a Fortran-ordered input once failed the finiteness check with a raw
    # ValueError ("last axis must be contiguous")
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    for fortran, values in ((a.T, a.T.copy()), (np.asfortranarray(a), a)):
        assert not fortran.flags.c_contiguous
        ms = MatrixSet((fortran,))
        assert np.array_equal(ms.matrix(1), MatrixSet((values,)).matrix(1))
    with pytest.raises(InputError):
        MatrixSet((np.asfortranarray([[1.0, np.nan], [3.0, 4.0]]),))


def test_matrix_set_indexing_is_one_based():
    ms = MatrixSet((np.diag([3.0, 1.0]), np.diag([1.0, 3.0])))
    assert ms.matrix(1)[0, 0] == 3.0
    assert ms.matrix(2)[1, 1] == 3.0
    with pytest.raises(InputError):
        ms.matrix(0)
    with pytest.raises(InputError):
        ms.matrix(3)


def test_matrix_set_is_immutable_and_owns_its_data():
    a = np.diag([3.0, 1.0])
    ms = MatrixSet((a, np.eye(2)))
    a[0, 0] = 7.0
    assert ms.matrix(1)[0, 0] == 3.0
    assert not ms.matrix(1).flags.writeable
    assert all(not m.flags.writeable for m in ms.matrices)
    with pytest.raises(AttributeError):
        ms.labels = ("x", "y")
    stack = ms.stack()
    stack[0, 0, 0] = 5.0  # a copy: the set is unchanged
    assert ms.matrix(1)[0, 0] == 3.0


def test_matrix_set_survives_copy_and_pickle():
    ms = MatrixSet((np.diag([3.0, 1.0]), np.array([[0.0, 1j], [1.0, 0.0]])), ("a", "b"))
    for again in (copy.copy(ms), copy.deepcopy(ms), pickle.loads(pickle.dumps(ms))):
        assert isinstance(again, MatrixSet)
        assert again.labels == ("a", "b")
        assert np.array_equal(again.stack(), ms.stack())
        assert not again.matrix(1).flags.writeable
        with pytest.raises(AttributeError):
            again.labels = ("x", "y")


def test_scaled_set():
    ms = MatrixSet((np.eye(2),)).scaled(2.5)
    assert np.allclose(ms.matrix(1), 2.5 * np.eye(2))


def test_spectral_radius_known_values():
    # eigenvalues of [[2,1],[1,1]] are (3 +/- sqrt 5)/2; the radius is
    # the square of the golden ratio
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert spectral_radius(a) == pytest.approx(GOLDEN**2, abs=1e-13)
    assert spectral_radius(np.diag([3.0, -4.0])) == 4.0
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert spectral_radius(rot) == pytest.approx(1.0, abs=1e-13)


def test_operator_norm_known_values():
    # largest singular value of the unit shear is the golden ratio
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert operator_norm(shear) == pytest.approx(GOLDEN, abs=1e-13)
    assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-13)


def test_max_entry_norm():
    a = np.array([[1.0, -7.0], [2.0, 3.0]])
    assert max_entry_norm(a) == 7.0


def test_exterior_square_2x2_is_determinant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        w = exterior_square(a)
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(np.linalg.det(a), abs=1e-12)


def test_exterior_square_multiplicative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a = rng.normal(size=(d, d))
        b = rng.normal(size=(d, d))
        lhs = exterior_square(a @ b)
        rhs = exterior_square(a) @ exterior_square(b)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_exterior_square_scaling_is_quadratic():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2))
    assert np.allclose(exterior_square(0.5 * a), 0.25 * exterior_square(a))


def test_exterior_square_dimension():
    a = np.eye(4)
    assert exterior_square(a).shape == (6, 6)
    assert np.allclose(exterior_square(a), np.eye(6))


def test_is_real_tolerance():
    ms = MatrixSet((np.eye(2) + 1e-12j * np.ones((2, 2)),))
    assert not ms.is_real()


def test_random_sets_spectral_radius_below_operator_norm():
    rng = np.random.default_rng(8)
    for _ in range(50):
        ms = random_matrix_set(rng, complex_entries=bool(rng.integers(2)))
        for a in ms.matrices:
            assert spectral_radius(a) <= operator_norm(a) + 1e-10

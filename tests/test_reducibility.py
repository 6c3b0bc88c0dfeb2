import numpy as np
import pytest

from jsrkit import (
    InputError,
    MatrixSet,
    Triangularisation,
    find_common_invariant_subspace,
    product_boundedness,
    triangularise,
)

from conftest import criterion5_case, random_matrix_set


def test_diagonal_pair_is_reducible(diag_set):
    sub = find_common_invariant_subspace(diag_set)
    assert sub is not None
    q = np.asarray(sub)
    # the subspace must be spanned by coordinate axes
    for a in diag_set.matrices:
        img = a @ q
        # image stays inside the span of q
        proj = q @ np.linalg.lstsq(q, img, rcond=None)[0]
        assert np.allclose(img, proj, atol=1e-8)


def test_shear_pair_is_irreducible(shear_pair):
    assert find_common_invariant_subspace(shear_pair) is None


def test_nilpotent_pair_is_irreducible(nilpotent_pair):
    assert find_common_invariant_subspace(nilpotent_pair) is None


def test_single_generic_matrix_is_reducible():
    rng = np.random.default_rng(41)
    ms = MatrixSet((rng.normal(size=(3, 3)),))
    assert find_common_invariant_subspace(ms) is not None


def test_triangularise_diagonal_pair(diag_set):
    tri = triangularise(diag_set)
    assert isinstance(tri, Triangularisation)
    assert tri.residual <= 1e-10
    for corner in tri.corner_blocks:
        assert np.max(np.abs(corner)) <= 1e-10
    radii = set()
    for blocks in (tri.upper_blocks, tri.lower_blocks):
        for a in blocks.matrices:
            radii.add(round(float(np.max(np.abs(np.linalg.eigvals(a)))), 9))
    assert radii == {1.0, 3.0}


def test_triangularise_rejects_irreducible(shear_pair):
    with pytest.raises(InputError):
        triangularise(shear_pair)


def test_triangularise_round_trip_residual():
    rng = np.random.default_rng(42)
    # build a reducible set by conjugating block-triangular matrices
    p = rng.normal(size=(3, 3))
    mats = []
    for _ in range(2):
        m = rng.normal(size=(3, 3))
        m[1:, 0] = 0.0
        mats.append(np.linalg.solve(p, m @ p))
    ms = MatrixSet(tuple(mats))
    tri = triangularise(ms)
    assert tri.residual <= 1e-8


def test_boundedness_diagonal_normalized(diag_set):
    verdict = product_boundedness(diag_set.scaled(1.0 / 3.0))
    assert verdict.status == "Bounded"
    assert verdict.certificate is not None


def test_boundedness_jordan_block_unbounded():
    ms = MatrixSet((np.array([[1.0, 1.0], [0.0, 1.0]]),))
    verdict = product_boundedness(ms)
    assert verdict.status in ("Unbounded", "Unknown")
    assert verdict.status == "Unbounded"


def test_boundedness_contractive_random():
    rng = np.random.default_rng(43)
    ms = random_matrix_set(rng, dim=2, size=2)
    ms = ms.scaled(0.3 / max(np.linalg.norm(a, 2) for a in ms.matrices))
    verdict = product_boundedness(ms)
    assert verdict.status == "Bounded"


def test_boundedness_certified_by_a_barabanov_norm():
    # no candidate norm reaches this irreducible pair's rate; the Barabanov
    # norm of the certify ladder does
    ms, _ = criterion5_case(1)
    verdict = product_boundedness(ms)
    assert verdict.status == "Bounded"
    assert verdict.certificate.kind == "angular_grid"
    assert verdict.certificate.values.shape == (512,)

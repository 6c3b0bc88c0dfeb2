import math

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

from jsrkit.reducibility import _algebra_dim

from conftest import criterion5_case, hidden_triangular_pair, random_matrix_set


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


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e9, 1e12])
def test_triangularise_does_not_depend_on_the_scale(c):
    # with absolute tolerances the small sets got a subspace that is not
    # invariant (diagonal [0.256c, 0.163c]) and the large ones none at all
    tri = triangularise(hidden_triangular_pair(c), seed=0)
    assert tri.block_dim == 1
    diag = [a[0, 0] for a in tri.upper_blocks.matrices]
    assert diag == pytest.approx([c, -0.5 * c], rel=1e-12)
    assert tri.residual <= 1e-12 * c


def _conjugated(mats, rng):
    p = rng.normal(size=(mats[0].shape[0],) * 2)
    return MatrixSet(tuple(np.linalg.solve(p, m @ p) for m in mats))


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_a_rank_deficient_map_keeps_its_invariant_subspace(c):
    # rounding noise of an image of a kernel vector is dropped, not
    # normalised into a new direction: a nilpotent matrix generates a
    # 2-dimensional algebra, and a kernel shared with the invariant
    # subspace does not hide it
    rng = np.random.default_rng(3)
    nilpotent = _conjugated((np.array([[0.0, 1.0], [0.0, 0.0]]),), rng).scaled(c)
    assert _algebra_dim(nilpotent, 1e-8) == 2
    assert find_common_invariant_subspace(nilpotent).shape[1] == 1
    kernel = _conjugated((
        np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 0.0], [0.0, 3.0, 1.0]]),
        np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 3.0]]),
    ), rng).scaled(c)
    tri = triangularise(kernel, seed=0)
    assert tri.block_dim == 1
    assert tri.residual <= 1e-12 * c


def _product_span_rank(ms):
    """Rank of the normalised vecs of I and every product of length up to
    Paz's bound ceil((d^2 + 2) / 3), which spans the generated algebra."""
    d = ms.dim
    level = np.eye(d)[None]
    vecs = [level.reshape(1, -1)]
    for _ in range(max(2, math.ceil((d * d + 2) / 3))):
        level = np.concatenate([ms.stack() @ p for p in level])
        flat = level.reshape(len(level), -1)
        norms = np.linalg.norm(flat, axis=1)
        vecs.append(flat[norms > 0] / norms[norms > 0, None])
    s = np.linalg.svd(np.concatenate(vecs), compute_uv=False)
    return int(np.sum(s > 1e-7 * s[0]))


def test_algebra_dim_matches_the_span_of_all_short_products():
    rng = np.random.default_rng(977)
    for i in range(40):
        d, ell = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        mats = [rng.normal(size=(d, d)) for _ in range(ell)]
        if i % 2:  # conjugated block-triangular
            k = int(rng.integers(1, d))
            for m in mats:
                m[k:, :k] = 0.0
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            mats = [q @ m @ q.T for m in mats]
        ms = MatrixSet(tuple(mats))
        rank = _product_span_rank(ms)
        for c in (1e-12, 1.0, 1e12):
            scaled = ms.scaled(c)
            assert _algebra_dim(scaled, 1e-8) == rank, (i, c)
            assert (find_common_invariant_subspace(scaled) is None) == (rank == d * d), (i, c)


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

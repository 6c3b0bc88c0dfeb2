import copy
import math
import pickle

import numpy as np
import pytest

from jsrkit import (
    InputError,
    MatrixSet,
    NormModel,
    barabanov_iterate,
    check_extremal,
    classify_extremality,
    extremal_norm_2d,
    kozyakin_extremal_witness,
)
from jsrkit.families import pair_family, rotation
from jsrkit.norms import residual_on

from conftest import GOLDEN, random_matrix_set


def test_euclidean_norm_model():
    n = NormModel.euclidean(3)
    assert n.vector(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)
    assert n.induced(2.0 * np.eye(3)) == pytest.approx(2.0, abs=1e-12)


def test_sup_norm_model():
    n = NormModel.sup(2)
    assert n.vector(np.array([1.0, -4.0])) == 4.0
    assert n.induced(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_weighted_norm_model():
    n = NormModel.weighted(np.array([2.0, 1.0]))
    assert n.vector(np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_angular_grid_constant_values_is_inscribed_polygon():
    n = NormModel.angular_grid(np.ones(16))
    e = NormModel.euclidean(2)
    # exact on the grid rays, slightly larger in between (inscribed polygon)
    for j in range(16):
        theta = 2 * np.pi * j / 16
        v = np.array([np.cos(theta), np.sin(theta)])
        assert n.vector(v) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(32)
    for _ in range(20):
        v = rng.normal(size=2)
        ratio = n.vector(v) / e.vector(v)
        assert 1.0 - 1e-12 <= ratio <= 1.0 / np.cos(np.pi / 16) + 1e-12


def test_norm_model_axioms_on_random_models():
    rng = np.random.default_rng(33)
    values = 1.0 + rng.uniform(0, 1, size=64)
    values = np.minimum(values, np.roll(values[::-1], 1))  # keep it sane
    models = [
        NormModel.euclidean(2),
        NormModel.sup(2),
        NormModel.weighted(np.array([1.5, 0.5])),
        NormModel.angular_grid(np.ones(8)),
    ]
    for n in models:
        for _ in range(50):
            u = rng.normal(size=2)
            v = rng.normal(size=2)
            c = float(rng.normal())
            assert n.vector(c * u) == pytest.approx(abs(c) * n.vector(u),
                                                    rel=1e-9, abs=1e-12)
            assert n.vector(u + v) <= n.vector(u) + n.vector(v) + 1e-9


def test_norm_json_round_trip():
    for n in (
        NormModel.euclidean(3),
        NormModel.sup(2),
        NormModel.weighted(np.array([2.0, 1.0])),
        NormModel.angular_grid(1.0 + 0.1 * np.cos(2 * np.pi * np.arange(16) / 8)),
    ):
        m = NormModel.from_json(n.to_json())
        v = np.ones(n.dim)
        assert m.vector(v) == pytest.approx(n.vector(v), rel=1e-12)


def test_saved_polytope_norm_is_an_unknown_kind():
    doc = {"kind": "polytope", "dim": 2, "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
    with pytest.raises(InputError, match="unknown norm kind"):
        NormModel.from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        ["euclidean", 2],
        {"dim": 2},
        {"kind": "euclidean"},
        {"kind": "euclidean", "dim": "2"},
        {"kind": "euclidean", "dim": 2.5},
        {"kind": "euclidean", "dim": True},
    ],
)
def test_norm_from_json_rejects_malformed_documents(doc):
    with pytest.raises(InputError):
        NormModel.from_json(doc)


def test_angular_grid_copy_and_pickle_keep_the_cached_ball():
    n = NormModel.angular_grid(1.0 + 0.1 * np.cos(2 * np.pi * np.arange(16) / 8))
    v = np.array([[0.3, -1.2], [2.0, 0.5]])
    a = np.array([[1.0, 0.5], [-0.2, 0.8]])
    n.induced(a)  # fills the cached ball vertices
    for m in (copy.copy(n), copy.deepcopy(n), pickle.loads(pickle.dumps(n))):
        assert m.vector_many(v).tobytes() == n.vector_many(v).tobytes()
        assert m.induced(a) == n.induced(a)


def test_angular_grid_requires_antipodal_symmetry():
    vals = np.ones(16)
    vals[3] = 2.0  # breaks nu(-v) == nu(v)
    with pytest.raises(InputError):
        NormModel.angular_grid(vals)


def test_barabanov_iteration_on_shear_pair(shear_pair):
    cert = barabanov_iterate(shear_pair, resolution=512, tol=1e-9)
    assert cert.rho_hat == pytest.approx(GOLDEN, abs=1e-6)
    assert cert.residual <= 1e-6
    ok, violation = check_extremal(cert.norm, shear_pair, cert.rho_hat, 1e-6)
    assert ok, violation


def test_barabanov_norm_balance_property(shear_pair):
    # at every direction the best one-step image recovers rho exactly
    cert = barabanov_iterate(shear_pair, resolution=512, tol=1e-9)
    rng = np.random.default_rng(34)
    for _ in range(100):
        v = rng.normal(size=2)
        best = max(
            cert.norm.vector(np.real(a) @ v) for a in shear_pair.matrices
        )
        assert best == pytest.approx(cert.rho_hat * cert.norm.vector(v),
                                     rel=1e-3)


def test_barabanov_rejects_reducible_sets(diag_set):
    with pytest.raises(InputError):
        barabanov_iterate(diag_set, resolution=64)


def _assert_converges_and_certifies(ms):
    # the Barabanov norm's rate is within 5e-3 of the JSR's lower bound
    from jsrkit.bounds import estimate

    est = estimate(ms, target_gap=1e-3, budget=200000, max_depth=40)
    cert = barabanov_iterate(ms, resolution=512, tol=1e-8, max_iters=20000)
    rate = max(cert.norm.induced(a) for a in ms.matrices)
    assert rate <= est.lower * (1 + 5e-3)


def test_barabanov_converges_on_capped_pair():
    # the certify benchmark's capped pair: the plain step h <- T h / rho
    # falls into a period-2 cycle on it, the relaxed step converges
    _assert_converges_and_certifies(MatrixSet((
        rotation(0.7) @ np.diag([1.0, 0.4]),
        rotation(2.5) @ np.diag([1.0, 0.6]),
    )))


def test_barabanov_converges_on_sweep_pair():
    # the pair of the CLI's exit-4 test (marginal-stability sweep, case 1):
    # the plain step falls into a period-3 cycle on it
    from jsrkit.bounds import estimate

    rng = np.random.default_rng(20250823)
    for _ in range(2):
        mats = [rng.normal(size=(2, 2)) for _ in range(2)]
    ms = MatrixSet(tuple(mats))
    ms = ms.scaled(1.0 / estimate(ms, target_gap=1e-3, budget=200000, max_depth=40).upper)
    _assert_converges_and_certifies(ms)


def test_barabanov_constant_rate_is_not_a_cycle():
    # rho_k settles to 1e-12 long before h does at this tol: the stop rule
    # waits for h as well
    cert = barabanov_iterate(pair_family(0.1), resolution=512, tol=1e-13)
    assert cert.iterations > 100


def _reference_gauge(qx, qy, vx, vy):
    # the polygon gauge as one call per image, sectors recomputed each time
    m = vx.shape[0]
    two_pi = 2.0 * math.pi
    theta = np.mod(np.arctan2(qy, qx), two_pi)
    j = np.minimum((theta * m / two_pi).astype(np.int64), m - 1)
    j1 = (j + 1) % m
    det = vx[j] * vy[j1] - vy[j] * vx[j1]
    a = (qx * vy[j1] - qy * vx[j1]) / det
    b = (vx[j] * qy - vy[j] * qx) / det
    return a + b


def _reference_step(ms, m, s):
    theta = 2.0 * math.pi * np.arange(m) / m
    grid = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    vx = np.ascontiguousarray(grid[:, 0] / s)
    vy = np.ascontiguousarray(grid[:, 1] / s)
    g = np.full(m, -np.inf)
    for a in ms.matrices:
        q = grid @ np.real(a).T
        qx, qy = np.ascontiguousarray(q[:, 0]), np.ascontiguousarray(q[:, 1])
        g = np.maximum(g, _reference_gauge(qx, qy, vx, vy))
    return grid, g


def _reference_barabanov(ms, m, tol, max_iters, seed):
    h = np.ones(m)
    rho_prev = math.nan
    streak = 0
    for it in range(1, max_iters + 1):
        grid, g = _reference_step(ms, m, h)
        rho = float(np.max(g))
        h_new = 0.5 * (g / rho + h)
        h_new = h_new / h_new.max()
        change = float(np.max(np.abs(h_new - h)))
        if not math.isnan(rho_prev) and abs(rho - rho_prev) <= tol and change <= tol:
            streak += 1
        else:
            streak = 0
        h = h_new
        rho_prev = rho
        if streak >= 3:
            break
    else:
        raise AssertionError("reference iteration did not converge")
    norm = NormModel.angular_grid(h)
    dirs = np.random.default_rng(seed).normal(size=(4096, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    residual = max(residual_on(norm, ms, rho, grid), residual_on(norm, ms, rho, dirs))
    return h, rho, residual, it


def _reference_extremal(ms, rho, m, horizon):
    s = np.ones(m)
    h = np.ones(m)
    for _ in range(horizon):
        s = _reference_step(ms, m, s)[1] / rho
        h = np.maximum(h, s)
    return h / np.max(h)


_SHEAR = (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]]))
_GRID_CASES = {
    # name: (matrices, resolution, Barabanov tol)
    "shear-64": (_SHEAR, 64, 1e-10),
    "shear-2048": (_SHEAR, 2048, 1e-10),
    "shear-1e6": (tuple(1e6 * a for a in _SHEAR), 64, 1e-4),
    "shear-1e-6": (tuple(1e-6 * a for a in _SHEAR), 2048, 1e-8),
    "family-0.25": (pair_family(0.25).matrices, 64, 1e-10),
    "three": ((*pair_family(0.25).matrices, 0.5 * rotation(2.0)), 64, 1e-10),
    "three-1e6": ((*(1e6 * a for a in pair_family(0.25).matrices), 5e5 * rotation(2.0)), 64, 1e-2),
}


@pytest.mark.parametrize("name", sorted(_GRID_CASES))
def test_grid_norms_match_per_image_reference(name):
    mats, m, tol = _GRID_CASES[name]
    ms = MatrixSet(tuple(np.array(np.real(a), dtype=np.float64) for a in mats))
    cert = barabanov_iterate(ms, resolution=m, tol=tol, max_iters=5000, seed=3)
    h, rho, residual, it = _reference_barabanov(ms, m, tol, 5000, seed=3)
    assert cert.norm.values.tobytes() == h.tobytes()
    assert cert.rho_hat == rho
    assert cert.residual == residual
    assert cert.iterations == it
    lower = 0.999 * rho
    values = extremal_norm_2d(ms, lower, resolution=m, horizon=60).values
    assert values.tobytes() == _reference_extremal(ms, lower, m, 60).tobytes()


def test_extremal_norm_construction_certifies_rate(shear_pair):
    n = extremal_norm_2d(shear_pair, GOLDEN, resolution=512)
    rho_c = max(n.induced(a) for a in shear_pair.matrices)
    assert rho_c <= GOLDEN * (1 + 1e-3)
    assert rho_c >= GOLDEN * (1 - 1e-3)


def test_extremal_norm_construction_on_stubborn_pairs():
    # pairs on which the plain fixed-point step h <- T h / rho cycles
    from jsrkit.bounds import estimate

    rng = np.random.default_rng(20250823)
    done = 0
    for _ in range(40):
        ms = MatrixSet(tuple(rng.normal(size=(2, 2)) for _ in range(2)))
        b0 = estimate(ms, target_gap=1e-3, budget=100000, max_depth=32)
        ms = ms.scaled(1.0 / b0.upper)
        b = estimate(ms, target_gap=1e-3, budget=100000, max_depth=32)
        if b.lower <= 0:
            continue
        n = extremal_norm_2d(ms, b.lower, resolution=512)
        rho_c = max(n.induced(a) for a in ms.matrices)
        assert rho_c <= b.lower * 1.01
        done += 1
    assert done >= 30


def test_extremal_norm_input_validation(shear_pair):
    with pytest.raises(InputError):
        extremal_norm_2d(shear_pair, 0.0)
    with pytest.raises(InputError):
        extremal_norm_2d(shear_pair, 1.0, resolution=12)
    with pytest.raises(InputError):
        extremal_norm_2d(MatrixSet((np.eye(3),)), 1.0)


def test_classify_extremality_constant_word(diag_set):
    n = NormModel.sup(2)
    kind, trace = classify_extremality(diag_set, n, 3.0, (1,) * 10)
    assert kind == "StrongCandidate"
    assert max(trace) <= 1.0 + 1e-9
    kind2, trace2 = classify_extremality(diag_set, n, 3.0, (1, 2) * 12)
    assert kind2 == "Neither"
    assert trace2[-1] == pytest.approx(3.0**-12, rel=1e-9)


def test_kozyakin_witness_on_diagonal(diag_set):
    n = NormModel.sup(2)
    hit = kozyakin_extremal_witness(diag_set, n, 3.0, (1,) * 8)
    assert hit is not None

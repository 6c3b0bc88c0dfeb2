import numpy as np
import pytest

from jsrkit import (
    InconsistencyError,
    MatrixSet,
    NormModel,
    ResourceCapError,
    barabanov_iterate,
    build_mather_approx,
    certified_approx,
    estimate,
    find_extremal_prefix,
    mean_distance_to_core,
    minimal_set_diagnostic,
    recurrent_ratio_check,
)
from jsrkit import mather
from jsrkit.families import rotation

from conftest import GOLDEN, random_matrix_set


@pytest.fixture
def diag_approx(diag_set):
    return build_mather_approx(diag_set, NormModel.sup(2), 3.0, max_depth=8)


def test_diagonal_survivors_are_constant_words(diag_approx):
    assert diag_approx.survivors[8] == frozenset({(1,) * 8, (2,) * 8})
    for n in diag_approx.depths:
        assert diag_approx.survivors[n] == frozenset({(1,) * n, (2,) * n})


def test_diagonal_diagnostic_two_components(diag_approx):
    diag = minimal_set_diagnostic(diag_approx)
    assert diag.kind == "MultipleSCC"
    assert diag.count == 2


def test_shear_pair_unique_component(shear_pair):
    cert = barabanov_iterate(shear_pair, resolution=512, tol=1e-9)
    ap = build_mather_approx(shear_pair, cert.norm, cert.rho_hat, max_depth=12)
    diag = minimal_set_diagnostic(ap)
    assert diag.kind == "UniqueSCC"
    assert (1, 2) * 6 in ap.survivors[12]


def test_survivor_nesting_and_shift_compatibility():
    rng = np.random.default_rng(51)
    checked = 0
    for _ in range(20):
        ms = random_matrix_set(rng, dim=2, size=2)
        from jsrkit.bounds import estimate

        b = estimate(ms, target_gap=1e-3, budget=50000, max_depth=24)
        if b.lower <= 0:
            continue
        ms = ms.scaled(1.0 / b.lower)
        try:
            from jsrkit.norms import extremal_norm_2d

            norm = extremal_norm_2d(ms, 1.0, resolution=256)
            rho = max(norm.induced(a) for a in ms.matrices)
            ap = build_mather_approx(ms, norm, rho, max_depth=6, tol=1e-2)
        except Exception:
            continue
        checked += 1
        for n in range(2, 7):
            prev = ap.survivors[n - 1]
            for w in ap.survivors[n]:
                # a survivor's leading prefix and shifted tail both survive
                assert w[:-1] in prev
                assert w[1:] in prev
    assert checked >= 10


def test_survivor_trace_lower_bound(diag_approx):
    for w in diag_approx.survivors[8]:
        tr = diag_approx.trace(w)
        assert min(tr) >= (1 - diag_approx.tol) ** 1 - 1e-12


def test_recurrent_ratio_check(diag_approx):
    out = recurrent_ratio_check(diag_approx)
    assert out["pass"]
    assert out["max_ratio"] >= out["threshold"]
    assert out["best_cycle"] in ((1,), (2,))


def test_mean_distance_to_core_vanishes_for_core_word(diag_approx):
    dists = mean_distance_to_core(diag_approx, (1,) * 64)
    assert dists[-1] <= 0.02
    assert dists[-1] <= dists[0]


def test_mean_distance_to_core_stays_large_off_core(diag_approx):
    dists = mean_distance_to_core(diag_approx, (1, 2) * 32)
    assert dists[-1] >= 0.1


def test_find_extremal_prefix_diagonal(diag_set):
    w = find_extremal_prefix(diag_set, NormModel.sup(2), 3.0, 12)
    assert w in ((1,) * 12, (2,) * 12)


def test_find_extremal_prefix_balanced_frequency(shear_pair):
    cert = barabanov_iterate(shear_pair, resolution=512, tol=1e-9)
    w = find_extremal_prefix(shear_pair, cert.norm, cert.rho_hat, 32)
    freq = sum(1 for s in w if s == 1) / len(w)
    assert 0.3 <= freq <= 0.7


def test_find_extremal_prefix_stops_at_its_budget(monkeypatch):
    # every prefix survives up to length ~50 at this rate, so the search
    # used to backtrack through 2**50 words without end
    ms = MatrixSet((np.eye(2), np.eye(2)))
    with pytest.raises(ResourceCapError):
        find_extremal_prefix(ms, NormModel.sup(2), 1.0001, 60)
    monkeypatch.setattr(mather, "_PREFIX_BUDGET", 4)
    assert find_extremal_prefix(ms, NormModel.sup(2), 1.0, 4) == (1,) * 4
    monkeypatch.setattr(mather, "_PREFIX_BUDGET", 3)
    with pytest.raises(ResourceCapError):
        find_extremal_prefix(ms, NormModel.sup(2), 1.0, 4)


def _criterion5_case(k):
    """Case k of acceptance criterion 5: a random pair scaled to JSR ~ 1."""
    rng = np.random.default_rng(20250823)
    for _ in range(k + 1):
        mats = [rng.normal(size=(2, 2)) for _ in range(2)]
    ms = MatrixSet(tuple(mats))
    b0 = estimate(ms, target_gap=1e-3, budget=200000, max_depth=40)
    ms = ms.scaled(1.0 / b0.upper)
    return ms, estimate(ms, target_gap=1e-3, budget=200000, max_depth=40)


def test_certified_approx_triangularises_the_stall_pair():
    # no norm certifies the full set; its upper block [1], [0.5] is exact
    ms = MatrixSet((np.array([[1.0, 100.0], [0.0, 1.0]]), 0.5 * np.eye(2)))
    est = estimate(ms, target_gap=1e-3, max_depth=24, budget=20000)
    found = certified_approx(ms, est, 8, 5e-3, seed=0, gap=1e-3)
    assert found.triangularised
    assert found.certified_by == "max_entry"
    assert found.approx.rho_hat == 1.0
    assert found.bounds.lower == found.bounds.upper == 1.0
    for n in found.approx.depths:
        assert found.approx.survivors[n] == frozenset({(1,) * n})


def test_certified_approx_certifies_criterion5_case1_by_barabanov():
    # the plain Barabanov step cycles on this pair; the relaxed one converges
    ms, est = _criterion5_case(1)
    found = certified_approx(ms, est, 8, 5e-3, seed=1, gap=1e-3)
    assert found.certified_by == "barabanov"
    assert not found.triangularised
    assert found.approx.norm.values.shape == (512,)
    assert found.approx.rho_hat <= est.lower * (1 + 5e-3)
    assert found.approx.survivors[8]


def test_certified_approx_triangularises_a_hidden_triangular_pair():
    # Q T_i Q^T with Q the rotation by 0.6: no norm certifies the full set,
    # so its upper block [1], [-0.5] is used
    q = rotation(0.6)
    t = (np.array([[1.0, 1.5], [0.0, 0.4]]), np.array([[-0.5, -1.2], [0.0, 0.3]]))
    ms = MatrixSet(tuple(q @ a @ q.T for a in t))
    est = estimate(ms, target_gap=1e-3, max_depth=24)
    found = certified_approx(ms, est, 7, 5e-3, seed=0, gap=1e-3)
    assert found.triangularised
    assert found.certified_by == "max_entry"
    assert found.approx.rho_hat == 1.0
    for n in found.approx.depths:
        assert found.approx.survivors[n] == frozenset({(1,) * n})


def test_certified_approx_takes_the_lower_block_when_it_carries_the_rate():
    # the hidden pair with its diagonals swapped: the invariant (upper)
    # block [0.4], [0.3] stays below the JSR 1 of the quotient block
    q = rotation(0.6)
    t = (np.array([[0.4, 1.5], [0.0, 1.0]]), np.array([[0.3, -1.2], [0.0, -0.5]]))
    ms = MatrixSet(tuple(q @ a @ q.T for a in t))
    est = estimate(ms, target_gap=1e-3, max_depth=24)
    found = certified_approx(ms, est, 7, 5e-3, seed=0, gap=1e-3)
    assert found.triangularised
    assert found.certified_by == "max_entry"
    assert found.approx.rho_hat == pytest.approx(1.0, abs=1e-12)
    assert found.bounds.upper - found.bounds.lower <= 1e-12
    for n in found.approx.depths:
        assert found.approx.survivors[n] == frozenset({(1,) * n})


def test_certified_approx_does_not_rebuild_a_candidate_norm(monkeypatch):
    # the Euclidean norm certifies case 24 but its survivors empty;
    # rebuilding it would give the same norm, so nothing else is tried
    calls = []
    monkeypatch.setattr(mather, "barabanov_iterate", lambda *a, **k: calls.append(1))
    ms, est = _criterion5_case(24)
    with pytest.raises(InconsistencyError):
        certified_approx(ms, est, 8, 5e-3, seed=1, gap=1e-3)
    assert calls == []

import math
import time

import numpy as np
import pytest

from jsrkit import (
    InputError,
    MatrixSet,
    ResourceCapError,
    estimate,
    lower_bound_periodic,
    normalize_periodic,
    operator_norm,
    spectral_radius,
    upper_bound_at_depth,
)
from jsrkit.cocycle import word_log_norms
from jsrkit.families import pair_family

from conftest import GOLDEN, random_matrix_set


def test_diagonal_pair_is_exact(diag_set):
    b = estimate(diag_set, target_gap=1e-12)
    assert b.lower == pytest.approx(3.0, abs=1e-12)
    assert b.upper == pytest.approx(3.0, abs=1e-12)
    assert b.converged


def test_nilpotent_pair_closes_at_depth_two(nilpotent_pair):
    u = upper_bound_at_depth(nilpotent_pair, 2)
    assert u == pytest.approx(1.0, abs=1e-12)
    low, wit = lower_bound_periodic(nilpotent_pair, 2)
    assert low == pytest.approx(1.0, abs=1e-12)
    assert wit == (1, 2)


def test_shear_pair_golden_ratio(shear_pair):
    b = estimate(shear_pair, target_gap=0.02, budget=500000, max_depth=40)
    assert b.gap <= 0.02
    assert b.lower <= GOLDEN <= b.upper
    assert b.lower_witness is not None


def test_periodic_lower_bound_witness_is_normalized(shear_pair):
    low, wit = lower_bound_periodic(shear_pair, 4)
    assert low == pytest.approx(GOLDEN, abs=1e-12)
    assert wit == (1, 2)


def test_periodic_lower_bound_matches_per_word_results(shear_pair):
    # the values and witnesses the per-word loop gave, to the last bit
    assert lower_bound_periodic(shear_pair, 10) == (1.618033988749895, (1, 2))
    assert lower_bound_periodic(pair_family(0.25), 10) == (
        1.1059248167418656,
        (1, 1, 1, 1, 1, 1, 1, 1, 2),
    )


def test_periodic_lower_bound_fails_fast_at_word_cap(shear_pair):
    # 2**25 words exceed the cap; nothing may be generated before raising
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        lower_bound_periodic(shear_pair, 25)
    assert time.perf_counter() - start < 0.5


def test_upper_bound_max_norm_dominates():
    rng = np.random.default_rng(21)
    for _ in range(10):
        ms = random_matrix_set(rng)
        op = upper_bound_at_depth(ms, 3, norm="op")
        mx = upper_bound_at_depth(ms, 3, norm="max")
        assert op <= mx * (1 + 1e-9)


def test_upper_bound_rejects_unknown_norm(diag_set, shear_pair):
    with pytest.raises(InputError):
        upper_bound_at_depth(diag_set, 2, norm="nuclear")
    # 2**20 products are within the cap; none may be built before raising
    start = time.perf_counter()
    with pytest.raises(InputError):
        upper_bound_at_depth(shear_pair, 20, norm="nuclear")
    assert time.perf_counter() - start < 0.1


def test_doubling_depth_never_raises_upper_bound():
    rng = np.random.default_rng(22)
    for _ in range(25):
        ms = random_matrix_set(rng, size=2)
        u1 = upper_bound_at_depth(ms, 2)
        u2 = upper_bound_at_depth(ms, 4)
        u3 = upper_bound_at_depth(ms, 8)
        assert u2 <= u1 * (1 + 1e-10)
        assert u3 <= u2 * (1 + 1e-10)


def test_anytime_sandwich_on_random_sets():
    rng = np.random.default_rng(23)
    for _ in range(25):
        ms = random_matrix_set(rng)
        b = estimate(ms, target_gap=1e-2, budget=50000, max_depth=20)
        assert b.lower <= b.upper * (1 + 1e-12)
        low, _ = lower_bound_periodic(ms, 3)
        assert low <= b.upper * (1 + 1e-9)


def test_estimate_scale_equivariance():
    rng = np.random.default_rng(24)
    for _ in range(10):
        ms = random_matrix_set(rng, size=2)
        c = float(rng.uniform(0.2, 5.0))
        b1 = estimate(ms, target_gap=1e-3, budget=100000, max_depth=24)
        b2 = estimate(ms.scaled(c), target_gap=1e-3 * c, budget=100000,
                      max_depth=24)
        assert b2.lower == pytest.approx(c * b1.lower, rel=1e-9)
        assert b2.upper == pytest.approx(c * b1.upper, rel=1e-6)


def _reference_estimate(ms, target_gap, budget, max_depth):
    """The node-by-node sweep ``estimate`` batches, as a tuple of its fields."""
    slack = target_gap / 2.0
    ell = len(ms)
    stack = ms.stack()
    lower, witness, evaluations, pruned_max = 0.0, None, 0, -math.inf
    frontier = []  # (product, log_scale, word, log_beta)
    for i in range(1, ell + 1):
        a = ms.matrix(i)
        evaluations += 1
        r = spectral_radius(a)
        if r > lower:
            lower, witness = r, (i,)
        nrm = operator_norm(a)
        frontier.append((a.copy(), 0.0, (i,), math.log(nrm) if nrm > 0.0 else -math.inf))
    depth = 1
    while True:
        threshold = math.log(lower + slack)
        pruned_max = max([pruned_max] + [e[3] for e in frontier if e[3] <= threshold])
        frontier = [e for e in frontier if e[3] > threshold]
        if not frontier:
            break
        upper_now = max(lower, math.exp(max(pruned_max, max(e[3] for e in frontier))))
        if upper_now - lower <= target_gap:
            break
        if depth >= max_depth or evaluations + len(frontier) * ell > budget:
            break
        new_frontier = []
        for product, logsc, word, logbeta in frontier:
            for i in range(1, ell + 1):
                p = stack[i - 1] @ product
                evaluations += 1
                m = np.max(np.abs(p))
                if m == 0.0:
                    continue
                e = math.frexp(m)[1]
                ls = logsc
                if abs(e) > 32:
                    p = p * 2.0**-e
                    ls = logsc + e * math.log(2.0)
                w = word + (i,)
                r = spectral_radius(p)
                if r > 0.0:
                    val = math.exp((math.log(r) + ls) / len(w))
                    if val > lower:
                        lower, witness = val, normalize_periodic(w)
                nrm = operator_norm(p)
                avg = (math.log(nrm) + ls) / len(w) if nrm > 0.0 else -math.inf
                new_frontier.append((p, ls, w, min(logbeta, avg)))
        frontier = new_frontier
        depth += 1
    best_log = max([pruned_max] + [e[3] for e in frontier])
    upper = max(lower, math.exp(best_log) if best_log > -math.inf else 0.0)
    return (lower, upper, witness, depth, "op", upper - lower <= target_gap, evaluations)


def _fields(b):
    return (b.lower, b.upper, b.lower_witness, b.upper_depth, b.norm_used,
            b.converged, b.evaluations)


# ROADMAP C's reducible pair on which estimate runs to its budget
STALL_PAIR = MatrixSet((np.array([[1.0, 100.0], [0.0, 1.0]]), 0.5 * np.eye(2)))

# (seed, dim, size, scale, complex entries, first factor strictly triangular)
REFERENCE_CASES = [
    (1, 1, 3, 1.0, False, False),
    (1, 4, 3, 1.0, False, False),
    (3, 2, 3, 1e12, False, False),
    (1, 3, 3, 1e-12, True, False),
    (6, 4, 2, 1e12, True, True),
    (2, 2, 3, 1e-12, False, True),
    (42, 3, 2, 1.0, True, True),
]


def _reference_set(seed, dim, size, scale, complex_entries, triangular):
    rng = np.random.default_rng(seed)
    ms = random_matrix_set(rng, dim, size, complex_entries)
    mats = [scale * a for a in ms.matrices]
    if triangular:
        mats[0] = np.triu(mats[0], 1)
    return MatrixSet(tuple(mats))


@pytest.mark.parametrize("seed,dim,size,scale,complex_entries,triangular", REFERENCE_CASES)
def test_estimate_matches_node_by_node_reference(seed, dim, size, scale,
                                                 complex_entries, triangular):
    ms = _reference_set(seed, dim, size, scale, complex_entries, triangular)
    args = (1e-3 * scale, 4000, 64)
    assert _fields(estimate(ms, *args)) == _reference_estimate(ms, *args)


@pytest.mark.parametrize("ms", [
    MatrixSet((np.zeros((2, 2)), np.zeros((2, 2)))),
    MatrixSet((np.eye(2, k=1), np.eye(2, k=-1))),  # zero products from depth 2 on
    MatrixSet((np.diag([3.0, 1.0]), np.diag([1.0, 3.0]))),  # ties: first max wins
    STALL_PAIR,
    # numpy's vectorised exp rounds this set's depth-2 rate differently
    MatrixSet((np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])))
    .scaled(5.125),
], ids=["zero", "nilpotent", "diagonal", "stall", "scaled_shear"])
def test_estimate_matches_reference_on_edge_sets(ms):
    args = (1e-2, 3000, 64)
    assert _fields(estimate(ms, *args)) == _reference_estimate(ms, *args)


def test_estimate_matches_pinned_results(shear_pair):
    # the node-by-node sweep gave these, to the last bit
    b = estimate(shear_pair, target_gap=0.02, budget=500000, max_depth=40)
    assert _fields(b) == (1.618033988749895, 1.618033988749895, (1, 2), 2, "op", True, 6)
    b = estimate(pair_family(0.25), target_gap=1e-3, budget=100000, max_depth=40)
    assert _fields(b) == (1.1059248167418656, 1.1194000644813715,
                          (1, 1, 1, 1, 1, 1, 1, 1, 2), 40, "op", False, 57494)
    b = estimate(STALL_PAIR, target_gap=1e-2, budget=20000)
    assert _fields(b) == (1.0, 1.6777353179565588, (1,), 14, "op", False, 15530)


def _reference_upper_bound(ms, depth, norm):
    """The full enumeration of all ell**depth products that
    ``upper_bound_at_depth`` prunes, built from the identity and rescaled
    by the frexp rule of ``cocycle._rescale``; the root is rounded up by
    one ulp."""
    stack = ms.stack()
    products = np.eye(ms.dim, dtype=np.complex128)[None]
    logs = np.zeros(1)
    for _ in range(depth):
        products = np.concatenate([a @ products for a in stack])
        logs = np.tile(logs, len(ms))
        e = np.frexp(np.max(np.abs(products), axis=(1, 2)))[1]
        big = np.abs(e) > 32
        products[big] *= 2.0 ** -e[big, None, None]
        logs[big] += e[big] * math.log(2.0)
    if norm == "op":
        norms = np.linalg.norm(products, ord=2, axis=(1, 2))
    else:
        norms = ms.dim * np.max(np.abs(products), axis=(1, 2))
    best = max(
        math.log(v) + s if v > 0.0 else -math.inf for v, s in zip(norms.tolist(), logs)
    )
    return 0.0 if best == -math.inf else math.nextafter(math.exp(best / depth), math.inf)


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


_TURN = _rotation(0.3)
UPPER_SETS = [_reference_set(*case) for case in REFERENCE_CASES] + [
    _reference_set(5, 3, 1, 1.0, False, False),
    MatrixSet((np.zeros((2, 2)), np.zeros((2, 2)))),
    # turned by a rotation, so their ties are broken by rounding alone
    MatrixSet(tuple(_TURN @ a @ _TURN.T for a in (np.eye(2, k=1), np.eye(2, k=-1)))),
    MatrixSet(tuple(1.2345 * _TURN @ _rotation(t) @ _TURN.T
                    for t in (2 * math.pi / 7, 1.0, 2.5))),
    MatrixSet((np.diag([3.0, 1.0]), np.diag([1.0, 3.0]))),  # exact ties
    STALL_PAIR,
]
UPPER_IDS = [f"random{i}" for i in range(len(REFERENCE_CASES))] + [
    "single", "zero", "nilpotent", "rotations", "diagonal", "stall"]


@pytest.mark.parametrize("norm", ["op", "max"])
@pytest.mark.parametrize("ms", UPPER_SETS, ids=UPPER_IDS)
def test_upper_bound_matches_full_enumeration(ms, norm):
    deepest = 16 if len(ms) <= 2 else 10
    for depth in (1, 2, 7, deepest):
        assert upper_bound_at_depth(ms, depth, norm) == _reference_upper_bound(ms, depth, norm)


@pytest.mark.parametrize("norm", ["op", "max"])
@pytest.mark.parametrize("ms", UPPER_SETS, ids=UPPER_IDS)
def test_upper_bound_is_the_sup_of_word_log_norms(ms, norm):
    # both sides of beta_sandwich and the depth bound read one product tree
    for n in (1, 2, 7):
        *_, last = word_log_norms(ms, n, norm)
        root = math.exp(max(last) / n)  # rounded up, 0 staying 0
        assert upper_bound_at_depth(ms, n, norm) == (math.nextafter(root, math.inf) if root else 0.0)


def test_readme_example_enclosure_is_not_inverted(diag_set):
    # {diag(3, 1), diag(1, 3)} has JSR exactly 3, attained by the word (1,)
    low, witness = lower_bound_periodic(diag_set, 8)
    assert (low, witness) == (3.0, (1,))
    assert estimate(diag_set).lower == low
    for depth in range(1, 17):
        # exp(log(3**n) / n) rounds to 2.9999999999999996 at n = 5, 10 and
        # 13; the depth bound rounds it up
        assert low <= upper_bound_at_depth(diag_set, depth)


def test_upper_bound_matches_pinned_results(shear_pair):
    # the full enumeration gave these, to the last bit, and the outward
    # rounding of the root put each one ulp higher
    assert upper_bound_at_depth(shear_pair, 16) == 1.6180339887498951
    assert upper_bound_at_depth(shear_pair, 16, "max") == 1.6558497696681376
    assert upper_bound_at_depth(pair_family(0.25), 16) == 1.1980153504002788
    assert upper_bound_at_depth(pair_family(0.25), 16, "max") == 1.249940304195326
    assert upper_bound_at_depth(STALL_PAIR, 16) == 1.5858332138538518
    assert upper_bound_at_depth(STALL_PAIR, 16, "max") == 1.656044008099445


@pytest.mark.parametrize("ms,kwargs,reason", [
    (MatrixSet((np.zeros((2, 2)),)), {}, "frontier_empty"),
    # lower = upper = 3 yet the emptied frontier is tested first
    (MatrixSet((np.diag([3.0, 1.0]), np.diag([1.0, 3.0]))), {"target_gap": 1e-12},
     "frontier_empty"),
    (pair_family(0.25), {"target_gap": 0.05}, "gap"),
    (STALL_PAIR, {"max_depth": 3}, "max_depth"),
    (STALL_PAIR, {"budget": 2000}, "budget"),
], ids=["zero", "diagonal", "gap", "max_depth", "budget"])
def test_estimate_stop_reason(ms, kwargs, reason):
    b = estimate(ms, **kwargs)
    assert b.stop_reason == reason
    assert b.converged == (reason in ("frontier_empty", "gap"))


def test_estimate_argument_checks(shear_pair):
    for kwargs in ({"target_gap": 0.0}, {"target_gap": math.nan}, {"max_depth": 0}):
        with pytest.raises(InputError):
            estimate(shear_pair, **kwargs)


def test_zero_set():
    ms = MatrixSet((np.zeros((2, 2)),))
    b = estimate(ms)
    assert b.lower == 0.0
    assert b.upper == 0.0


def test_rotation_set_radius_one():
    theta = 2 * math.pi / 7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    ms = MatrixSet((rot,))
    b = estimate(ms, target_gap=1e-6, max_depth=64)
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-4)

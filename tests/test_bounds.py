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
    upper_bound_at_depth,
)
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


def test_upper_bound_rejects_unknown_norm(diag_set):
    with pytest.raises(InputError):
        upper_bound_at_depth(diag_set, 2, norm="nuclear")


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

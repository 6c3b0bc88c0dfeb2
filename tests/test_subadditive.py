import math

import numpy as np
import pytest

from jsrkit import (
    InputError,
    MatrixSet,
    SubadditiveObservable,
    beta_sandwich,
    estimate,
    fekete_limit,
    matrix_observable,
    subordination_survivors,
)

from conftest import GOLDEN, random_matrix_set


def test_fekete_limit_affine_sequence():
    # a_n = n + 1 is subadditive with rate 1; the running minima decrease
    prefix = [n + 1.0 for n in range(1, 41)]
    est, minima = fekete_limit(prefix)
    assert est == pytest.approx(41.0 / 40.0)
    assert minima == sorted(minima, reverse=True)
    assert minima[-1] == est


def test_fekete_limit_reports_violation():
    # a_2 > a_1 + a_1 breaks subadditivity
    with pytest.raises(InputError) as err:
        fekete_limit([1.0, 3.0, 3.5])
    assert "1" in str(err.value) and "2" in str(err.value)


def test_matrix_observable_values(diag_set):
    obs = matrix_observable(diag_set)
    assert obs((1,)) == pytest.approx(math.log(3.0), abs=1e-12)
    assert obs((1, 2)) == pytest.approx(math.log(3.0), abs=1e-9)
    assert obs.alphabet_size == 2


def test_spot_check_passes_for_matrix_observables():
    from jsrkit.words import enumerate_words

    rng = np.random.default_rng(71)
    ms = random_matrix_set(rng, dim=3, size=2)
    obs = matrix_observable(ms)
    assert obs.spot_check(list(enumerate_words(2, 3))) is None


def test_spot_check_reports_superadditive_violation():
    from jsrkit.words import enumerate_words

    obs = SubadditiveObservable(lambda w: float(len(w)) ** 2, 2)
    violation = obs.spot_check(list(enumerate_words(2, 2)))
    assert violation is not None


def test_beta_sandwich_brackets_log_radius(shear_pair):
    obs = matrix_observable(shear_pair)
    low, up = beta_sandwich(obs, depth=12, max_period=8)
    assert low <= up + 1e-9
    # both sides approach log of the golden ratio from above
    assert up >= math.log(GOLDEN) - 1e-12
    assert low >= math.log(GOLDEN) - 1e-9
    assert up - math.log(GOLDEN) <= 0.05
    assert low - math.log(GOLDEN) <= 0.05


def test_beta_sandwich_exact_on_diagonal(diag_set):
    obs = matrix_observable(diag_set)
    low, up = beta_sandwich(obs, depth=6, max_period=4)
    assert low == pytest.approx(math.log(3.0), abs=1e-12)
    assert up == pytest.approx(math.log(3.0), abs=1e-12)


def test_beta_sandwich_agrees_with_jsr_bounds():
    rng = np.random.default_rng(72)
    for _ in range(15):
        ms = random_matrix_set(rng, dim=2, size=2)
        obs = matrix_observable(ms)
        low, up = beta_sandwich(obs, depth=6, max_period=6)
        from jsrkit.bounds import lower_bound_periodic, upper_bound_at_depth

        u_direct = min(
            math.log(upper_bound_at_depth(ms, n)) for n in range(1, 7)
        )
        l_direct, _ = lower_bound_periodic(ms, 6)
        assert up == pytest.approx(u_direct, abs=1e-9)
        assert low <= up + 1e-9
        if l_direct > 0:
            # the periodic ergodic averages dominate the spectral radii
            assert low >= math.log(l_direct) - 1e-9


def test_beta_sandwich_lower_side_is_a_bound_on_reproducer():
    # log JSR = 0; the truncated periodic average read 1.498 here
    obs = matrix_observable(MatrixSet(([[1.0, 100.0], [0.0, 1.0]],)))
    low, up = beta_sandwich(obs, depth=4, max_period=2)
    assert low <= 1e-12
    assert up >= 0.0
    # without exact periodic rates the lower side is only an estimate
    generic = SubadditiveObservable(obs.evaluator, obs.alphabet_size)
    low_est, up_est = beta_sandwich(generic, depth=4, max_period=2)
    assert up_est == up
    assert low_est == pytest.approx(1.4978676992623474, rel=1e-12)


def test_subordination_survivors_diagonal(diag_set):
    obs = matrix_observable(diag_set, norm="op")
    surv = subordination_survivors(obs, math.log(3.0), depth=6, tol=1e-6)
    assert surv[6] == frozenset({(1,) * 6, (2,) * 6})


def test_subordination_rejects_wrong_rate(diag_set):
    obs = matrix_observable(diag_set, norm="op")
    with pytest.raises(InputError):
        subordination_survivors(obs, math.log(2.0), depth=5, tol=1e-6)

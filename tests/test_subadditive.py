import itertools
import math
import time

import numpy as np
import pytest

import jsrkit.cocycle
import jsrkit.subadditive
from jsrkit import (
    InputError,
    MatrixSet,
    ResourceCapError,
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


def test_beta_sandwich_upper_side_encloses_readme_example(diag_set):
    # to nearest, log(3**5)/5 lies one ulp below log 3 = log JSR; the upper
    # side is rounded up, and the lower side is clamped to it
    obs = matrix_observable(diag_set)
    for depth in range(1, 9):
        low, up = beta_sandwich(obs, depth=depth, max_period=4)
        assert up >= math.log(3.0)
        assert low == math.log(3.0)


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


def test_unknown_norm_is_rejected_at_the_call(diag_set):
    # no level is built, and none needs to be read, before the check
    with pytest.raises(InputError):
        jsrkit.cocycle.word_log_norms(diag_set, 0, "nuclear")
    with pytest.raises(InputError):
        matrix_observable(diag_set, norm="nuclear")


def test_subordination_rejects_wrong_rate(diag_set):
    obs = matrix_observable(diag_set, norm="op")
    with pytest.raises(InputError):
        subordination_survivors(obs, math.log(2.0), depth=5, tol=1e-6)


def _reference_upper(obs, depth):
    """beta_sandwich's upper side, one word at a time, a finite minimum
    rounded up one ulp."""
    upper = math.inf
    for n in range(1, depth + 1):
        words = itertools.product(range(1, obs.alphabet_size + 1), repeat=n)
        upper = min(upper, max(obs(w) for w in words) / n)
    if math.isfinite(upper):
        upper = math.nextafter(upper, math.inf)
    return upper


def _reference_survivors(obs, lam, depth, tol):
    """subordination_survivors, one word at a time."""
    ell = obs.alphabet_size
    for n in range(1, depth + 1):
        sup = max(obs(w) for w in itertools.product(range(1, ell + 1), repeat=n))
        if abs(sup - n * lam) > tol * max(1.0, n):
            raise InputError(f"hypothesis fails at depth {n}")
    survivors = {}
    level = [()]
    for n in range(1, depth + 1):
        level = [
            w + (i,)
            for w in level
            for i in range(1, ell + 1)
            if obs(w + (i,)) >= n * lam - tol
        ]
        survivors[n] = frozenset(level)
    return survivors


def _scaled_set(seed, dim, size, scale, complex_entries, triangular):
    rng = np.random.default_rng([73, seed])
    ms = random_matrix_set(rng, dim=dim, size=size, complex_entries=complex_entries)
    mats = [scale * a for a in ms.matrices]
    if triangular:
        mats[0] = np.triu(mats[0], 1)  # strictly triangular: nilpotent
    return MatrixSet(tuple(mats))


_NILPOTENT = MatrixSet(([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]))
_BATCH_SETS = {
    "d1_ell3": (_scaled_set(1, 1, 3, 1.0, False, False), 6),
    "d2_scale_1e12": (_scaled_set(2, 2, 2, 1e12, False, False), 8),
    "d3_scale_1e-12": (_scaled_set(3, 3, 2, 1e-12, False, False), 8),
    "d4_complex": (_scaled_set(4, 4, 2, 1.0, True, False), 6),
    "d3_triangular": (_scaled_set(5, 3, 3, 1.0, False, True), 5),
    "d2_complex_triangular": (_scaled_set(6, 2, 3, 1e12, True, True), 5),
    "ell1": (_scaled_set(7, 3, 1, 1e-12, False, False), 10),
    "nilpotent": (_NILPOTENT, 8),
    "zero": (MatrixSet((np.zeros((2, 2)), np.zeros((2, 2)))), 4),
}


@pytest.mark.parametrize("norm", ["op", "max"])
@pytest.mark.parametrize("name", sorted(_BATCH_SETS))
def test_batched_levels_match_per_word_loop(name, norm):
    ms, depth = _BATCH_SETS[name]
    obs = matrix_observable(ms, norm)
    generic = SubadditiveObservable(obs.evaluator, len(ms))
    ell = len(ms)
    # every value, not only the per-level maxima, in lexicographic order
    levels = list(obs.level_values(depth))
    assert levels == [
        [generic(w) for w in itertools.product(range(1, ell + 1), repeat=n)]
        for n in range(1, depth + 1)
    ]
    upper = _reference_upper(generic, depth)
    low, up = beta_sandwich(obs, depth, max_period=4)
    assert up == upper
    assert low == min(max(obs.periodic_rates(4)), upper)
    # a tolerance that the hypothesis passes, so the prefix filter runs
    lam = upper
    gaps = [abs(max(level) - n * lam) / n for n, level in enumerate(levels, start=1)]
    tol = 0.3 + max((g for g in gaps if math.isfinite(g)), default=0.0)
    depth = min(depth, 6)
    try:
        expected = _reference_survivors(generic, lam, depth, tol)
    except InputError:
        with pytest.raises(InputError):
            subordination_survivors(obs, lam, depth, tol)
    else:
        assert subordination_survivors(obs, lam, depth, tol) == expected


def test_matrix_observable_makes_no_per_word_calls(shear_pair, monkeypatch):
    calls = []

    def counting(ms, word):
        calls.append(word)
        return jsrkit.cocycle.evaluate(ms, word)

    monkeypatch.setattr(jsrkit.subadditive, "evaluate", counting)
    obs = matrix_observable(shear_pair)
    low, up = beta_sandwich(obs, depth=8, max_period=6)
    surv = subordination_survivors(obs, up, depth=6, tol=1.0)
    assert calls == []
    # the generic path of the same evaluator goes word by word
    generic = SubadditiveObservable(obs.evaluator, 2, periodic_rates=obs.periodic_rates)
    assert beta_sandwich(generic, depth=8, max_period=6) == (low, up)
    assert subordination_survivors(generic, up, depth=6, tol=1.0) == surv
    # 2 + ... + 2**8 words for beta_sandwich, 2 + ... + 2**6 for the survivors
    assert len(calls) == 2**9 - 2 + 2**7 - 2


def test_beta_sandwich_fails_fast_at_word_cap(shear_pair):
    obs = matrix_observable(shear_pair)
    generic = SubadditiveObservable(obs.evaluator, 2)
    for o in (obs, generic):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            beta_sandwich(o, depth=21, max_period=2)
        with pytest.raises(ResourceCapError):
            subordination_survivors(o, 0.5, depth=21, tol=1e-6)
        assert time.perf_counter() - start < 0.1

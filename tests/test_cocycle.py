import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsrkit import MatrixSet, cocycle_check, evaluate, prefix_values
from jsrkit.cocycle import path_log_norms, periodic_values
from jsrkit.matrices import spectral_radius
from jsrkit.words import enumerate_words, is_primitive, least_rotation

from conftest import random_matrix_set


def test_newest_factor_multiplies_on_the_left():
    a1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    a2 = np.array([[2.0, 0.0], [0.0, 2.0]])
    ms = MatrixSet((a1, a2))
    # word (1, 2) applies A1 first, then A2: L = A2 @ A1
    v = evaluate(ms, (1, 2))
    assert np.allclose(v.value, a2 @ a1)


def test_empty_word_is_identity():
    ms = MatrixSet((np.diag([3.0, 1.0]),))
    v = evaluate(ms, ())
    assert np.allclose(v.value, np.eye(2))
    assert v.log_scale == 0.0


def test_scaled_representation_avoids_overflow():
    ms = MatrixSet((np.diag([1e10, 1e-10]),))
    v = evaluate(ms, (1,) * 100)
    # raw product would overflow float range; the scaled form must not
    assert np.all(np.isfinite(v.product))
    assert v.log_max_entry() == pytest.approx(100 * math.log(1e10), rel=1e-12)


def test_scaled_representation_avoids_underflow():
    ms = MatrixSet((np.diag([1e-10, 1e-20]),))
    v = evaluate(ms, (1,) * 60)
    assert np.max(np.abs(v.product)) > 0.0
    assert v.log_max_entry() == pytest.approx(60 * math.log(1e-10), rel=1e-12)


def test_prefix_values_match_direct_evaluation():
    rng = np.random.default_rng(11)
    ms = random_matrix_set(rng, dim=3, size=2)
    word = tuple(int(s) for s in rng.integers(1, 3, size=10))
    vals = prefix_values(ms, word)
    assert len(vals) == len(word)
    for n, v in enumerate(vals, start=1):
        assert v.word == word[:n]
        direct = evaluate(ms, word[:n])
        assert np.allclose(v.value, direct.value, atol=1e-10)


@given(
    st.integers(min_value=0, max_value=1000),
    st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=10),
)
@settings(max_examples=200, deadline=None)
def test_composition_rule_on_random_words(seed, word):
    rng = np.random.default_rng(seed)
    ms = random_matrix_set(rng, size=2)
    word = tuple(word)
    for n in range(len(word) + 1):
        assert cocycle_check(ms, word, n)


def test_composition_rule_complex_entries():
    rng = np.random.default_rng(12)
    ms = random_matrix_set(rng, dim=2, size=3, complex_entries=True)
    word = tuple(int(s) for s in rng.integers(1, 4, size=8))
    for n in range(len(word) + 1):
        assert cocycle_check(ms, word, n)


def test_path_log_norms_absorption_detected():
    stack = np.stack([np.zeros((2, 2)), np.eye(2)]).astype(complex)
    floor = math.log(1e-300)
    symbols = np.array([2, 2, 1, 2])
    log_norm, absorbed = path_log_norms(stack, [(symbols - 1)[:, None]], 1, floor)
    assert absorbed[0] == 3  # the zero factor is the third one applied
    assert log_norm[0] == -np.inf
    symbols_ok = np.array([2, 2, 2])
    log_norm, absorbed = path_log_norms(stack, [(symbols_ok - 1)[:, None]], 1, floor)
    assert absorbed[0] == -1
    assert log_norm[0] == 0.0


def test_path_log_norms_absorption_inside_a_block():
    # the product sinks to 1e-400 at step 2 and is back to 1e2400 by the
    # end of the first block, so only the per-step replay can see it
    stack = np.stack([1e-200 * np.eye(2), 1e200 * np.eye(2)])
    floor = math.log(1e-300)
    word = np.array([0, 0] + [1] * 16 + [0] * 2)
    log_norm, absorbed = path_log_norms(stack, [word[:, None]], 1, floor)
    assert absorbed[0] == 2
    assert log_norm[0] == -np.inf
    # the same word in chunks of 3 steps: padded blocks change nothing
    chunks = [word[k:k + 3, None] for k in range(0, len(word), 3)]
    assert path_log_norms(stack, chunks, 1, floor)[1][0] == 2
    word = np.array([1, 0] * 9 + [1])
    log_norm, absorbed = path_log_norms(stack, [word[:, None]], 1, floor)
    assert absorbed[0] == -1
    assert log_norm[0] == pytest.approx(200 * math.log(10.0), rel=1e-14)


def _reference_periodic_values(ms, max_period):
    """The per-word loop: filter all words, multiply symbol by symbol."""
    out = []
    for p in range(1, max_period + 1):
        for w in enumerate_words(len(ms), p):
            if w != least_rotation(w) or not is_primitive(w):
                continue
            product = np.eye(ms.dim, dtype=np.complex128)
            logsc = 0.0
            for s in w:
                product = ms.matrix(s) @ product
                m = np.max(np.abs(product))
                if m > 0.0:
                    e = math.frexp(m)[1]
                    if abs(e) > 32:
                        product = product * 2.0**-e
                        logsc += e * math.log(2.0)
            r = spectral_radius(product)
            if r == 0.0 or (len(w) == 1 and logsc == 0.0):
                val = r  # an unscaled single matrix keeps its raw radius
            else:
                val = math.exp((math.log(r) + logsc) / len(w))
            out.append((w, val))
    return out


@pytest.mark.parametrize(
    "dim, size, scale, complex_entries, nilpotent, max_period",
    [
        (3, 2, 1e12, False, False, 9),  # entries grow past 2**32: rescaled
        (3, 2, 1e-12, False, False, 9),  # and shrink below 2**-32
        (2, 2, 1.0, False, True, 10),  # a nilpotent factor: zero products
        (2, 3, 1.0, True, False, 6),  # complex entries
        (3, 1, 1e12, False, False, 12),  # one symbol: one necklace
        (4, 3, 1.0, False, False, 5),
    ],
)
def test_periodic_values_match_per_word_reference(
    dim, size, scale, complex_entries, nilpotent, max_period
):
    rng = np.random.default_rng([31, dim, size, max_period])
    ms = random_matrix_set(rng, dim=dim, size=size, complex_entries=complex_entries)
    mats = [scale * a for a in ms.matrices]
    if nilpotent:
        mats[0] = np.triu(mats[0], 1)
    ms = MatrixSet(tuple(mats))
    # same words, same order, same floats
    assert periodic_values(ms, max_period) == _reference_periodic_values(
        ms, max_period
    )

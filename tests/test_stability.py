import copy
import math
import pickle

import numpy as np
import pytest

from jsrkit import (
    InputError,
    MarkovChainSpec,
    MatrixSet,
    classify,
    markov_lyapunov,
)
from jsrkit.cocycle import path_log_norms
from jsrkit.stability import _ABSORPTION_FLOOR, _simulate_paths

from conftest import random_matrix_set


def test_chain_spec_validation():
    with pytest.raises(InputError):
        MarkovChainSpec(np.array([[0.5, 0.6], [0.5, 0.5]]),
                        np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        MarkovChainSpec(np.array([[0.5, 0.5], [0.5, 0.5]]),
                        np.array([0.7, 0.5]))


def test_chain_spec_rejects_non_finite_entries_and_negative_seed():
    # NaN entries used to pass and only failed later inside rng.choice
    with pytest.raises(InputError):
        MarkovChainSpec(np.full((2, 2), 0.5), np.array([np.nan, np.nan]))
    with pytest.raises(InputError):
        MarkovChainSpec(np.array([[np.nan, 0.5], [0.5, 0.5]]),
                        np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        MarkovChainSpec(np.array([[np.inf, 0.5], [0.5, 0.5]]),
                        np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        MarkovChainSpec.uniform(2, seed=-1)
    with pytest.raises(InputError):
        MarkovChainSpec.uniform(2, seed=2.7)


def test_chain_spec_is_immutable_and_owns_its_data():
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    pi = np.array([0.5, 0.5])
    chain = MarkovChainSpec(p, pi, seed=3)
    p[0, 0] = 0.0
    assert chain.transition[0, 0] == 0.5
    assert not chain.transition.flags.writeable
    assert not chain.initial.flags.writeable
    with pytest.raises(AttributeError):
        chain.seed = 4


def test_chain_spec_survives_copy_and_pickle():
    chain = MarkovChainSpec(np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([0.3, 0.7]), seed=3)
    for again in (copy.copy(chain), copy.deepcopy(chain), pickle.loads(pickle.dumps(chain))):
        assert isinstance(again, MarkovChainSpec)
        assert again.seed == 3
        assert np.array_equal(again.transition, chain.transition)
        assert np.array_equal(again.initial, chain.initial)
        assert not again.transition.flags.writeable
        with pytest.raises(AttributeError):
            again.seed = 4


def test_uniform_chain_is_full():
    chain = MarkovChainSpec.uniform(3)
    assert chain.full
    assert np.allclose(chain.transition, np.full((3, 3), 1.0 / 3.0))


def test_chain_json_round_trip():
    chain = MarkovChainSpec.uniform(2, seed=9)
    again = MarkovChainSpec.from_json(chain.to_json())
    assert np.allclose(again.transition, chain.transition)
    assert np.allclose(again.initial, chain.initial)
    assert again.seed == chain.seed


@pytest.mark.parametrize(
    "doc",
    [
        [[0.5, 0.5], [0.5, 0.5]],
        {"initial": [0.5, 0.5]},
        {"transition": [[0.5, 0.5], [0.5, 0.5]]},
        {"transition": [[0.5, 0.5], [0.5]], "initial": [0.5, 0.5]},
        {"transition": [["a", 0.5], [0.5, 0.5]], "initial": [0.5, 0.5]},
        {"transition": [[0.5, 0.5], [0.5, 0.5]], "initial": [0.5, 0.5], "seed": "abc"},
        {"transition": [[0.5, 0.5], [0.5, 0.5]], "initial": [0.5, 0.5], "seed": 2.7},
        {"transition": [[0.5, 0.5], [0.5, 0.5]], "initial": [0.5, 0.5], "seed": False},
    ],
)
def test_chain_from_json_rejects_malformed_documents(doc):
    with pytest.raises(InputError):
        MarkovChainSpec.from_json(doc)


def test_single_matrix_exponent_is_log_spectral_radius():
    # one matrix, deterministic product: the estimate has zero variance
    ms = MatrixSet((np.diag([2.0, 0.5]),))
    chain = MarkovChainSpec.uniform(1)
    est = markov_lyapunov(ms, chain, horizon=100, trials=8)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)
    assert est.lambda_hat == pytest.approx(math.log(2.0), rel=1e-6)


def test_diagonal_pair_exponent_near_half_log_three(diag_set):
    chain = MarkovChainSpec.uniform(2, seed=3)
    n, t = 400, 256
    est = markov_lyapunov(diag_set, chain, horizon=n, trials=t)
    target = math.log(3.0) / 2.0
    # finite-horizon bias of E max(k, n-k)/n adds about log(3)/sqrt(n)
    assert abs(est.lambda_hat - target) <= 3 * est.stderr + math.log(3.0) / math.sqrt(n)
    assert est.absorbed_count == 0


def test_estimates_are_seed_reproducible(diag_set):
    chain = MarkovChainSpec.uniform(2, seed=11)
    a = markov_lyapunov(diag_set, chain, horizon=50, trials=16)
    b = markov_lyapunov(diag_set, chain, horizon=50, trials=16)
    assert a.lambda_hat == b.lambda_hat
    assert a.stderr == b.stderr


def test_trial_outcomes_independent_of_trial_count():
    # a second factor of the nilpotent matrix zeroes the product, so some
    # trials are absorbed within the horizon and some are not
    ms = MatrixSet((np.diag([3.0, 1.0]), np.diag([1.0, 3.0]),
                    np.array([[0.0, 1.0], [0.0, 0.0]])))
    chain = MarkovChainSpec.uniform(3, seed=11)
    stack = ms.stack().real
    paths = np.concatenate(list(_simulate_paths(chain, 6, 16)))
    assert np.array_equal(paths[:, :8], np.concatenate(list(_simulate_paths(chain, 6, 8))))
    log_norm, absorbed = path_log_norms(stack, [paths], 16, _ABSORPTION_FLOOR)
    log_norm8, absorbed8 = path_log_norms(stack, [paths[:, :8]], 8, _ABSORPTION_FLOOR)
    assert np.array_equal(log_norm[:8], log_norm8)
    assert np.array_equal(absorbed[:8], absorbed8)
    assert 0 < np.count_nonzero(absorbed >= 0) < 16


def _reference_markov(ms, chain, horizon, trials):
    """One rng.choice per step and a scalar rescaled product per trial."""
    rates, steps = [], []
    for t in range(trials):
        seq = np.random.SeedSequence(entropy=chain.seed, spawn_key=(t,))
        rng = np.random.Generator(np.random.Philox(seq))
        state = int(rng.choice(chain.states, p=chain.initial))
        product = np.eye(ms.dim, dtype=np.complex128)
        log_scale = 0.0
        for k in range(horizon):
            if k:
                state = int(rng.choice(chain.states, p=chain.transition[state]))
            product = ms.matrix(state + 1) @ product
            m = np.max(np.abs(product))
            if m == 0.0 or math.log(m) + log_scale < _ABSORPTION_FLOOR:
                steps.append(k + 1)
                break
            e = math.frexp(m)[1]
            if abs(e) > 32:
                product = product * 2.0**-e
                log_scale += e * math.log(2.0)
        else:
            log_norm = math.log(np.max(np.abs(product))) + log_scale
            rates.append(log_norm / horizon)
    lam = float(np.mean(rates)) if rates else math.nan
    return lam, tuple(sorted(steps))


def _equivalence_cases():
    rng = np.random.default_rng(2024)
    p3 = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])
    set3 = random_matrix_set(rng, dim=3, size=3)
    # grows past the float64 range unless rescaled, over more steps than
    # one block of uniforms holds
    yield (random_matrix_set(rng, dim=2, size=2, complex_entries=True).scaled(20.0),
           MarkovChainSpec.uniform(2, seed=5), 1100)
    # non-uniform, started far from its stationary distribution
    chain3 = MarkovChainSpec(p3, np.array([0.05, 0.05, 0.9]), seed=8)
    yield set3, chain3, 300
    # contracting so that about half the trials underflow the floor
    yield set3.scaled(0.065), chain3, 300
    yield (MatrixSet((np.array([[0.0, 1.0], [0.0, 0.0]]),
                      np.array([[0.0, 0.0], [1.0, 0.0]]))),
           MarkovChainSpec.uniform(2, seed=1), 300)


@pytest.mark.parametrize("case", range(4))
def test_batched_matches_per_trial_reference(case):
    ms, chain, horizon = list(_equivalence_cases())[case]
    lam, steps = _reference_markov(ms, chain, horizon=horizon, trials=12)
    est = markov_lyapunov(ms, chain, horizon=horizon, trials=12)
    assert est.absorption_steps == steps
    if math.isnan(lam):
        assert math.isnan(est.lambda_hat)
    else:
        assert abs(est.lambda_hat - lam) <= 1e-12


def _blocked_cases():
    """Sets that take each branch of the blocked product pass."""
    rng = np.random.default_rng(2026)
    eye = np.eye(2)
    drift_up = MarkovChainSpec(np.array([[0.45, 0.55], [0.45, 0.55]]),
                               np.array([0.5, 0.5]), seed=4)
    # a trial sinks below the floor mid-block and would recover by its end
    yield MatrixSet((1e-200 * eye, 1e200 * eye)), drift_up, 200
    # entries near 1e150: the bounds force the in-block rescale
    yield (MatrixSet((1e-150 * np.array([[0.2, 1.0], [1.0, 0.1]]),
                      1e150 * np.array([[1.0, 0.5], [-0.3, 2.0]]))),
           drift_up, 200)
    # a singular matrix: no lower bound, so the in-block rescale again
    yield (MatrixSet((np.array([[1.0, 2.0], [0.5, 1.0]]),
                      np.array([[0.3, -1.0], [0.9, 0.4]]))), drift_up, 200)
    yield (MatrixSet((np.array([[0.9, 0.4], [-0.2, 1.1]]),)),
           MarkovChainSpec.uniform(1, seed=2), 50)
    yield random_matrix_set(rng, dim=3, size=2), drift_up, 1
    # several chunks, a partial last block, absorption in the last chunk
    yield (random_matrix_set(np.random.default_rng(5), dim=3, size=3).scaled(0.43),
           MarkovChainSpec.uniform(3, seed=6), 1100)


@pytest.mark.parametrize(
    "case", range(6), ids=["sink", "huge", "singular", "ell1", "horizon1", "chunks"]
)
def test_blocked_products_match_per_trial_reference(case):
    ms, chain, horizon = list(_blocked_cases())[case]
    lam, steps = _reference_markov(ms, chain, horizon=horizon, trials=12)
    est = markov_lyapunov(ms, chain, horizon=horizon, trials=12)
    assert est.absorption_steps == steps
    assert abs(est.lambda_hat - lam) <= 1e-12


@pytest.mark.parametrize("bad", [{"horizon": 2.5}, {"horizon": True},
                                 {"trials": 8.0}, {"trials": False}])
def test_markov_lyapunov_rejects_non_integer_counts(diag_set, bad):
    # horizon=2.5 used to raise a raw TypeError from range()
    with pytest.raises(InputError):
        markov_lyapunov(diag_set, MarkovChainSpec.uniform(2), **bad)


def test_markov_lyapunov_accepts_numpy_integers(diag_set):
    chain = MarkovChainSpec.uniform(2, seed=3)
    a = markov_lyapunov(diag_set, chain, horizon=np.int64(40), trials=np.int32(4))
    b = markov_lyapunov(diag_set, chain, horizon=40, trials=4)
    assert (a.horizon, a.trials) == (40, 4)
    assert type(a.horizon) is int
    assert a.lambda_hat == b.lambda_hat


def test_scale_equivariance_of_exponent():
    rng = np.random.default_rng(61)
    for _ in range(5):
        ms = random_matrix_set(rng, dim=2, size=2)
        chain = MarkovChainSpec.uniform(2, seed=5)
        a = markov_lyapunov(ms, chain, horizon=60, trials=32)
        c = 3.0
        b = markov_lyapunov(ms.scaled(c), chain, horizon=60, trials=32)
        assert b.lambda_hat == pytest.approx(a.lambda_hat + math.log(c),
                                             rel=0, abs=1e-9)


def test_absorption_on_nilpotent_pair(nilpotent_pair):
    chain = MarkovChainSpec.uniform(2, seed=1)
    est = markov_lyapunov(nilpotent_pair, chain, horizon=64, trials=256)
    assert est.absorbed_count == 256
    # two equal nilpotent directions: each step halts with probability 1/2
    assert est.absorbed_by(16) >= 1.0 - 2.0**-10


def test_classify_stable_contraction():
    ms = MatrixSet((np.diag([0.5, 0.25]), np.diag([0.25, 0.5])))
    report = classify(ms)
    assert report.absolute == "Stable"
    assert report.jsr.upper < 1.0


def test_classify_not_stable(diag_set):
    report = classify(diag_set)
    assert report.absolute == "NotStable"
    assert report.periodic == "CounterexampleWord"
    assert report.periodic_value >= 1.0
    assert report.periodic_witness in ((1,), (2,))


def test_classify_zero_absorption(nilpotent_pair):
    report = classify(nilpotent_pair)
    assert report.markov == "ZeroAbsorption"
    # radius is exactly 1, witnessed by the alternating word
    assert report.absolute == "NotStable"
    assert report.periodic_witness == (1, 2)


def test_classify_marginal_gives_markov_evidence():
    # radius exactly 1 but almost every trajectory contracts
    ms = MatrixSet((np.diag([1.0, 0.5]), np.diag([0.5, 1.0])))
    report = classify(ms)
    assert report.absolute == "NotStable"
    assert report.markov == "StableEvidence"


def test_classify_report_json(diag_set):
    doc = classify(diag_set).to_json()
    assert doc["absolute"] == "NotStable"
    assert "jsr" in doc and "config" in doc


def test_classify_report_jsr_block_is_the_enclosure_payload(diag_set):
    # the stability report prints its enclosure as every other report does,
    # with the reason the estimate stopped
    report = classify(diag_set)
    doc = report.to_json()
    assert doc["jsr"] == report.jsr.to_json()
    assert doc["jsr"]["stop_reason"] == report.jsr.stop_reason
    assert {"target_gap", "budget"} <= set(doc["config"])

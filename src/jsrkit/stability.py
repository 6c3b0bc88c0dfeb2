"""Stability classification of discrete linear inclusions.

Three graded verdicts: absolute (from certified joint-spectral-radius
bounds), periodic (from periodic products up to a period cap), and Markov
(Monte Carlo Lyapunov-exponent evidence under a full Markov chain, with
absorption detection for products that vanish identically).  Markov
verdicts are evidence, never certificates: the underlying property is an
almost-everywhere statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as jsr_bounds
from .cocycle import path_log_norms
from .errors import InputError, require_fields, require_int
from .matrices import MatrixSet

__all__ = [
    "MarkovChainSpec",
    "MarkovEstimate",
    "markov_lyapunov",
    "StabilityReport",
    "classify",
]

_ABSORPTION_FLOOR = math.log(1e-300)
_CHUNK_STEPS = 256  # uniforms drawn per trial, and path steps held, at a time
_STATE_BLOCK = 16  # steps whose state tables compose into one map; divides _CHUNK_STEPS
_TARGET_GAP = 1e-8  # classify's estimate: the gap it stops at
_BUDGET = 200_000  # classify's estimate: the products it may evaluate


class MarkovChainSpec:
    """Row-stochastic transition matrix with an initial distribution.

    Both are copied into one read-only (l + 1, l) array whose last row is
    the initial distribution; ``transition`` and ``initial`` are views of it.
    """

    __slots__ = ("_rows", "seed")

    def __init__(self, transition, initial, seed: int = 0):
        try:
            p = np.asarray(transition, dtype=np.float64)
            pi = np.asarray(initial, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InputError(f"chain entries must be numbers: {exc}") from exc
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InputError("transition matrix must be square")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(pi))):
            raise InputError("transition and initial entries must be finite")
        if np.any(p < 0) or np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise InputError("transition rows must be nonnegative and sum to 1")
        if pi.shape != (p.shape[0],) or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise InputError("initial distribution must match and sum to 1")
        seed = require_int(seed, "seed")
        if seed < 0:
            raise InputError("seed must be nonnegative")
        rows = np.vstack([p, pi])
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "seed", seed)

    def __setattr__(self, name, value):
        raise AttributeError(f"MarkovChainSpec is immutable; cannot set {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return MarkovChainSpec, (self.transition, self.initial, self.seed)

    def __repr__(self) -> str:
        return (
            f"MarkovChainSpec({self.transition!r}, {self.initial!r}, seed={self.seed!r})"
        )

    @property
    def transition(self) -> np.ndarray:
        return self._rows[:-1]

    @property
    def initial(self) -> np.ndarray:
        return self._rows[-1]

    @property
    def states(self) -> int:
        return self.transition.shape[0]

    @property
    def full(self) -> bool:
        return bool(np.all(self.transition > 0.0))

    @classmethod
    def uniform(cls, states: int, seed: int = 0) -> "MarkovChainSpec":
        p = np.full((states, states), 1.0 / states)
        return cls(transition=p, initial=np.full(states, 1.0 / states), seed=seed)

    @classmethod
    def from_json(cls, doc: dict) -> "MarkovChainSpec":
        transition, initial = require_fields(doc, "chain", "transition", "initial")
        return cls(transition, initial, seed=doc.get("seed", 0))

    def to_json(self) -> dict:
        return {
            "transition": self.transition.tolist(),
            "initial": self.initial.tolist(),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MarkovEstimate:
    """Monte Carlo estimate of the top Lyapunov exponent of the cocycle."""

    lambda_hat: float  # nan when every trial was absorbed
    stderr: float
    horizon: int
    trials: int
    seed: int
    absorbed_count: int
    absorption_steps: tuple  # one entry per absorbed trial

    def absorbed_by(self, step: int) -> float:
        """Empirical probability that a trial was absorbed at or before step."""
        return sum(1 for s in self.absorption_steps if s <= step) / self.trials


def _simulate_paths(chain: MarkovChainSpec, horizon: int, trials: int):
    """Yield the 0-based states of all trials, ``_CHUNK_STEPS`` steps at a time.

    Each chunk is an (n, trials) array of the smallest unsigned dtype that
    holds the state count.  Trial t draws its uniforms from its own
    counter-based stream, one chunk at a time so that memory does not grow
    with the horizon, and its path does not depend on how many trials run.
    Each uniform is inverted against the normalised cumulative row of the
    current state with searchsorted(side="right") semantics, as
    ``Generator.choice(p=...)`` does, so the paths match one ``choice`` call
    per step bit for bit.

    A chunk is worked out from tables, not step by step: the uniforms of
    each step give its next state from every current state at once (step 0
    maps every state to the initial draw).  The tables are composed over
    blocks of ``_STATE_BLOCK`` steps, the composed maps carry the state from
    block start to block start, and each block is then filled in from its
    start: about 3 * ``_STATE_BLOCK`` flat lookups per chunk.
    """
    rngs = [
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=chain.seed, spawn_key=(t,)))
        )
        for t in range(trials)
    ]
    start = chain.initial.cumsum()
    start /= start[-1]
    cdf = chain.transition.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    state = np.zeros(trials, np.min_scalar_type(chain.states))  # step 0 does not read it
    for k in range(0, horizon, _CHUNK_STEPS):
        n = min(_CHUNK_STEPS, horizon - k)
        chunk, state = _chunk_states(rngs, n, cdf, start if k == 0 else None, state)
        yield chunk


def _chunk_states(rngs, n: int, cdf: np.ndarray, start, state: np.ndarray):
    """The states of the next n steps of every trial, and the last of them.

    ``start`` is the normalised cumulative initial distribution when the
    chunk begins the paths, else None.  The working arrays die with the
    call, so that between chunks only the states are held.
    """
    trials, ell = len(rngs), len(cdf)
    stride = np.intp(trials)  # a strong integer type: no uint8 wrap-around
    lanes = np.arange(trials)
    blocks = -(-n // _STATE_BLOCK)
    # a partial block ends only the last chunk: what its padding steps
    # give is cut off, and the state after it is never read
    u = np.zeros((blocks * _STATE_BLOCK, trials))
    for t, rng in enumerate(rngs):
        u[:n, t] = rng.random(n)
    u = u.reshape(blocks, _STATE_BLOCK, 1, trials).transpose(1, 0, 2, 3)
    # table[j, b, s, t]: trial t's state after step j of block b from s.
    # searchsorted's right index is the count of cumulative entries <= u;
    # the last entry of a row is 1 > u and never counts
    table = np.zeros((_STATE_BLOCK, blocks, ell, trials), state.dtype)
    for column in cdf[:, :-1].T:
        table += column[:, None] <= u
    if start is not None:
        table[0, 0] = np.searchsorted(start, u[0, 0, 0], side="right")
    flat = table.reshape(_STATE_BLOCK, -1)
    base = np.arange(blocks)[:, None] * (ell * stride) + lanes  # (blocks, trials)
    through = table[0]  # each block's map from its entry state so far
    for j in range(1, _STATE_BLOCK):
        through = np.take(flat[j], through * stride + base[:, None])
    entry = np.empty((blocks, trials), state.dtype)
    for b in range(blocks):
        entry[b] = state
        state = np.take(through[b], state * stride + lanes)
    states = np.empty((_STATE_BLOCK, blocks, trials), state.dtype)
    for j in range(_STATE_BLOCK):
        entry = states[j] = np.take(flat[j], entry * stride + base)
    return states.transpose(1, 0, 2).reshape(-1, trials)[:n], state


def markov_lyapunov(
    ms: MatrixSet,
    chain: MarkovChainSpec,
    horizon: int = 200,
    trials: int = 64,
) -> MarkovEstimate:
    """Across-trial estimate of lim (1/n) log ||L(x, n)|| under the chain.

    All trials advance together through the horizon in chunks of
    ``_CHUNK_STEPS`` steps, in float64 when the set is real: the chunk's
    symbols come from ``_simulate_paths`` and its products from
    ``path_log_norms``, which multiplies blocks of 16 steps in
    batched passes and replays step by step only the blocks in which a
    trial may have been absorbed.  Peak memory is one chunk's symbols and
    block products, whatever the horizon.  Each trial has its own seeded
    stream, so its outcome does not depend on the number of trials.  A
    trial whose product norm reaches exact zero (or underflows below
    1e-300 in true value) counts as absorbed and contributes its
    absorption step (that of a step-by-step product, up to rounding at the
    floor) instead of a rate sample.
    """
    if chain.states != len(ms):
        raise InputError("chain state count must match the matrix set")
    if not chain.full:
        raise InputError("the Markov chain must be full (all transitions positive)")
    horizon, trials = require_int(horizon, "horizon"), require_int(trials, "trials")
    if horizon < 1 or trials < 1:
        raise InputError("horizon and trials must be >= 1")
    stack = ms.stack()
    if ms.is_real():
        stack = np.ascontiguousarray(stack.real)
    log_norm, absorbed = path_log_norms(
        stack, _simulate_paths(chain, horizon, trials), trials, _ABSORPTION_FLOOR
    )
    rates = log_norm[absorbed < 0] / horizon
    steps = tuple(sorted(absorbed[absorbed >= 0].tolist()))
    if rates.size:
        lam = float(np.mean(rates))
        stderr = (
            float(np.std(rates, ddof=1) / math.sqrt(len(rates)))
            if len(rates) > 1
            else math.inf
        )
    else:
        lam = math.nan
        stderr = math.nan
    return MarkovEstimate(
        lambda_hat=lam,
        stderr=stderr,
        horizon=horizon,
        trials=trials,
        seed=chain.seed,
        absorbed_count=len(steps),
        absorption_steps=steps,
    )


@dataclass(frozen=True)
class StabilityReport:
    """Graded verdicts for the three stability notions."""

    absolute: str  # Stable | NotStable | Unknown
    periodic: str  # StableUpTo | CounterexampleWord | Unknown
    markov: str  # StableEvidence | ZeroAbsorption | NotStable | Unknown
    jsr: jsr_bounds.JsrBounds
    max_period: int
    periodic_witness: tuple = None
    periodic_value: float = None
    markov_estimate: MarkovEstimate = None
    config: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "absolute": self.absolute,
            "periodic": self.periodic,
            "markov": self.markov,
            "jsr": self.jsr.to_json(),
            "max_period": self.max_period,
            "periodic_witness": list(self.periodic_witness or ()),
            "periodic_value": self.periodic_value,
            "config": self.config,
        }
        if self.markov_estimate is not None:
            me = self.markov_estimate
            out["markov_estimate"] = {
                "lambda_hat": me.lambda_hat,
                "stderr": me.stderr,
                "horizon": me.horizon,
                "trials": me.trials,
                "seed": me.seed,
                "absorbed_count": me.absorbed_count,
                "mean_absorption_step": (
                    float(np.mean(me.absorption_steps))
                    if me.absorption_steps
                    else None
                ),
            }
        return out


def classify(
    ms: MatrixSet,
    max_period: int = 8,
    depth: int = 12,
    chain: MarkovChainSpec = None,
    horizon: int = 200,
    trials: int = 64,
) -> StabilityReport:
    """Classify absolute, periodic and Markov asymptotic stability.

    Absolute stability holds exactly when the growth rate is below 1, so
    the verdict follows the certified interval: Stable when upper < 1,
    NotStable when lower >= 1 (a rate of exactly 1 already refutes decay),
    Unknown otherwise.  The interval is ``estimate``'s at gap
    ``_TARGET_GAP``, budget ``_BUDGET`` and depth cap ``depth``; the
    report's ``config`` echoes all three.
    """
    chain = chain or MarkovChainSpec.uniform(len(ms))
    est = jsr_bounds.estimate(
        ms, target_gap=_TARGET_GAP, budget=_BUDGET, max_depth=depth
    )
    if est.upper < 1.0:
        absolute = "Stable"
    elif est.lower >= 1.0:
        absolute = "NotStable"
    else:
        absolute = "Unknown"

    per_value, per_witness = jsr_bounds.lower_bound_periodic(ms, max_period)
    periodic = "CounterexampleWord" if per_value >= 1.0 else "StableUpTo"

    me = markov_lyapunov(ms, chain, horizon=horizon, trials=trials)
    if me.absorbed_count > 0:
        markov = "ZeroAbsorption"
    elif me.lambda_hat + 3.0 * me.stderr < 0.0:
        markov = "StableEvidence"
    elif me.lambda_hat - 3.0 * me.stderr > 0.0:
        markov = "NotStable"
    else:
        markov = "Unknown"

    return StabilityReport(
        absolute=absolute,
        periodic=periodic,
        markov=markov,
        jsr=est,
        max_period=max_period,
        periodic_witness=per_witness,
        periodic_value=per_value,
        markov_estimate=me,
        config={
            "max_period": max_period,
            "depth": depth,
            "horizon": horizon,
            "trials": trials,
            "target_gap": _TARGET_GAP,
            "budget": _BUDGET,
            "seed": chain.seed,
        },
    )

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
from .errors import InputError
from .matrices import MatrixSet

__all__ = [
    "MarkovChainSpec",
    "MarkovEstimate",
    "markov_lyapunov",
    "StabilityReport",
    "classify",
]

_ABSORPTION_FLOOR = math.log(1e-300)
_BLOCK_STEPS = 1024  # uniforms drawn per trial at a time


@dataclass(frozen=True)
class MarkovChainSpec:
    """Row-stochastic transition matrix with an initial distribution."""

    transition: np.ndarray
    initial: np.ndarray
    seed: int = 0

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=np.float64)
        pi = np.asarray(self.initial, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InputError("transition matrix must be square")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(pi))):
            raise InputError("transition and initial entries must be finite")
        if np.any(p < 0) or np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise InputError("transition rows must be nonnegative and sum to 1")
        if pi.shape != (p.shape[0],) or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise InputError("initial distribution must match and sum to 1")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "initial", pi)

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
        return cls(
            transition=np.asarray(doc["transition"], dtype=np.float64),
            initial=np.asarray(doc["initial"], dtype=np.float64),
            seed=int(doc.get("seed", 0)),
        )

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

    @property
    def absorbed_fraction(self) -> float:
        return self.absorbed_count / self.trials

    def absorbed_by(self, step: int) -> float:
        """Empirical probability that a trial was absorbed at or before step."""
        return sum(1 for s in self.absorption_steps if s <= step) / self.trials


def _simulate_paths(chain: MarkovChainSpec, horizon: int, trials: int):
    """Yield the 0-based states of all trials, one (trials,) array per step.

    Trial t draws its uniforms from its own counter-based stream, in blocks
    of ``_BLOCK_STEPS`` so that memory does not grow with the horizon, and
    its path does not depend on how many trials run.  Each uniform is
    inverted against the normalised cumulative row of the current state
    with searchsorted(side="right") semantics, as ``Generator.choice(p=...)``
    does, so the paths match one ``choice`` call per step bit for bit.
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
    # searchsorted's right index is the count of cumulative entries <= u;
    # the last entry of a row is 1 > u and never counts
    columns = cdf[:, :-1].T.copy()
    zero = np.zeros(trials, dtype=np.intp)
    uniforms = np.empty((min(horizon, _BLOCK_STEPS), trials))
    for k in range(horizon):
        j = k % _BLOCK_STEPS
        if j == 0:
            n = min(_BLOCK_STEPS, horizon - k)
            for t, rng in enumerate(rngs):
                uniforms[:n, t] = rng.random(n)
        u = uniforms[j]
        if k == 0:
            state = np.searchsorted(start, u, side="right")
        else:
            state = sum((column[state] <= u for column in columns), zero)
        yield state


def markov_lyapunov(
    ms: MatrixSet,
    chain: MarkovChainSpec,
    horizon: int = 200,
    trials: int = 64,
) -> MarkovEstimate:
    """Across-trial estimate of lim (1/n) log ||L(x, n)|| under the chain.

    Every time step advances all trials together: one vectorised symbol
    draw and one batched (trials, d, d) product step, in float64 when the
    set is real.  Each trial has its own seeded stream, so its outcome does
    not depend on the number of trials.  A trial whose product norm reaches
    exact zero (or underflows below 1e-300 in true value) counts as
    absorbed and contributes absorption statistics instead of a rate
    sample.
    """
    if chain.states != len(ms):
        raise InputError("chain state count must match the matrix set")
    if not chain.full:
        raise InputError("the Markov chain must be full (all transitions positive)")
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
            "jsr": {
                "lower": self.jsr.lower,
                "upper": self.jsr.upper,
                "lower_witness": list(self.jsr.lower_witness or ()),
                "upper_depth": self.jsr.upper_depth,
                "converged": self.jsr.converged,
            },
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
    target_gap: float = 1e-8,
    budget: int = 200000,
) -> StabilityReport:
    """Classify absolute, periodic and Markov asymptotic stability.

    Absolute stability holds exactly when the growth rate is below 1, so
    the verdict follows the certified interval: Stable when upper < 1,
    NotStable when lower >= 1 (a rate of exactly 1 already refutes decay),
    Unknown otherwise.
    """
    chain = chain or MarkovChainSpec.uniform(len(ms))
    est = jsr_bounds.estimate(ms, target_gap=target_gap, budget=budget, max_depth=depth)
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
            "target_gap": target_gap,
            "budget": budget,
            "seed": chain.seed,
        },
    )

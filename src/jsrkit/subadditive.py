"""Subadditive observables over the full shift: Fekete limits, two-sided
growth-rate sandwiches, and subordination survivor sets.

An observable assigns a value f_n(w) to every length-n word (the value of
f_n on the cylinder the word determines); minus infinity is allowed.
Subadditivity means f_{n+m}(w) <= f_n(w[m:]) + f_m(w[:m]) -- the suffix
carries the shifted n-block, matching the cocycle orientation used
throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import _check_norm, _log_norms, evaluate, periodic_values, word_log_norms
from .errors import InputError
from .matrices import MatrixSet
from .words import enumerate_words, primitive_necklaces

__all__ = [
    "SubadditiveObservable",
    "matrix_observable",
    "fekete_limit",
    "beta_sandwich",
    "subordination_survivors",
]

_SPOT_TOL = 1e-9  # slack spot_check allows f(w) over the sum of its parts
_WORD_CAP = 2**20  # words per level beta_sandwich and subordination_survivors may read


@dataclass(frozen=True)
class SubadditiveObservable:
    """A word-indexed observable with a declared subadditivity contract."""

    evaluator: object  # callable Word -> float or -inf
    alphabet_size: int
    declared_subadditive: bool = True
    # optional callable: period cap P -> the exact rates lim_k f_{kp}(w^k)/(kp)
    # of the primitive necklaces w of period p <= P
    periodic_rates: object = None
    # optional callable: depth N -> for n = 1..N, the list of f_n(w) over all
    # length-n words w in lexicographic order, equal to evaluating each word
    level_values: object = None

    def __call__(self, w) -> float:
        return float(self.evaluator(tuple(w)))

    def spot_check(self, words):
        """Verify subadditivity, up to ``_SPOT_TOL``, on all split points of
        the given words.

        Returns None, or the first violating (word, n, m) triple.
        """
        for w in words:
            w = tuple(w)
            whole = self(w)
            for m in range(1, len(w)):
                part = self(w[m:]) + self(w[:m])
                if whole > part + _SPOT_TOL:
                    return (w, len(w) - m, m)
        return None


def matrix_observable(ms: MatrixSet, norm: str = "op") -> SubadditiveObservable:
    """f_n(w) = log of a submultiplicative norm of the cocycle product.

    ``norm`` is ``op`` or ``max`` (d times the max-entry norm).  The
    evaluator and the ``level_values`` (``cocycle.word_log_norms``, every
    word of a length at once) read their products with the same
    ``cocycle._log_norms``, so they agree to the bit.
    """
    _check_norm(norm)

    def evaluator(w):
        if not w:
            return 0.0
        cv = evaluate(ms, w)
        return float(_log_norms(cv.product[None], np.array([cv.log_scale]), norm)[0])

    def periodic_rates(max_period):  # log rho(L(w))/|w|, the rate of w^k
        values = periodic_values(ms, max_period)
        return [math.log(v) if v > 0.0 else -math.inf for _, v in values]

    return SubadditiveObservable(
        evaluator,
        len(ms),
        periodic_rates=periodic_rates,
        level_values=lambda depth: word_log_norms(ms, depth, norm),
    )


def _levels(obs: SubadditiveObservable, depth: int):
    """f_n over all length-n words in lexicographic order, one list per n.

    Raises past ``_WORD_CAP`` before anything is evaluated.  Uses the
    observable's ``level_values`` when it has them, else evaluates word by
    word.
    """
    enumerate_words(obs.alphabet_size, depth, _WORD_CAP)  # makes no word
    if obs.level_values is not None:
        return obs.level_values(depth)
    return (
        [obs(w) for w in enumerate_words(obs.alphabet_size, n, _WORD_CAP)]
        for n in range(1, depth + 1)
    )


def fekete_limit(prefix) -> tuple:
    """min_n a_n / n for a finite prefix of a subadditive sequence a_1..a_N.

    Verifies subadditivity a_{n+m} <= a_n + a_m on every split pair first;
    returns (estimate, running_minima).  For subadditive sequences a_n / n
    converges to its infimum, so the running minima are an anytime upper
    estimate of the limit.
    """
    a = [float(x) for x in prefix]
    if not a:
        raise InputError("need at least a_1")
    big_n = len(a)
    for n in range(1, big_n + 1):
        for m in range(1, n):
            if a[n - 1] > a[n - m - 1] + a[m - 1] + 1e-9:
                raise InputError(
                    f"subadditivity violated at (n, m) = ({n - m}, {m}): "
                    f"a_{n} > a_{n - m} + a_{m}"
                )
    running = []
    best = math.inf
    for n in range(1, big_n + 1):
        best = min(best, a[n - 1] / n)
        running.append(best)
    return running[-1], running


def beta_sandwich(
    obs: SubadditiveObservable,
    depth: int,
    max_period: int,
) -> tuple:
    """Two-sided enclosure of the maximal ergodic average of the observable.

    upper = min over n <= depth of (1/n) max over length-n words of f_n:
    the inf-sup side, always an upper bound by subadditivity.  A finite
    minimum is rounded up one ulp (-inf stays -inf), as
    ``bounds.upper_bound_at_depth`` rounds its root: to nearest,
    log(3**5)/5 lies one ulp below log 3.  With the
    observable's ``level_values`` (``matrix_observable`` has them) each
    length-n level is one batched product-tree level, so peak memory at the
    cap is one full level of ell**depth values, as in
    ``bounds.upper_bound_at_depth``; otherwise every word is evaluated on
    its own.  Raises ``ResourceCapError`` before evaluating anything when
    ell**depth exceeds ``_WORD_CAP``.

    lower = max over primitive periodic words w of period p <= max_period
    of the rate of w.  With the observable's exact ``periodic_rates`` that
    is a lower bound.  Without them it is only an estimate: the truncated
    periodic average inf_{k <= K} f_{kp}(w^k)/(kp) with K = ceil(depth / p),
    and the truncation of the inner infimum can only overestimate.  Either
    way the lower side is clamped to the upper side, keeping lower <= upper.
    """
    if not obs.declared_subadditive:
        raise InputError("beta_sandwich needs a declared-subadditive observable")
    if depth < 1 or max_period < 1:
        raise InputError("depth and max_period must be >= 1")
    upper = math.inf
    for n, values in enumerate(_levels(obs, depth), start=1):
        upper = min(upper, max(values) / n)
    if math.isfinite(upper):
        upper = math.nextafter(upper, math.inf)
    if obs.periodic_rates is not None:
        lower = max(obs.periodic_rates(max_period))
    else:
        lower = -math.inf
        for w in primitive_necklaces(obs.alphabet_size, max_period):
            p = len(w)
            reps = max(1, math.ceil(depth / p))
            inner = min(obs(w * k) / (k * p) for k in range(1, reps + 1))
            lower = max(lower, inner)
    lower = min(lower, upper)
    return lower, upper


def subordination_survivors(
    obs: SubadditiveObservable,
    lam: float,
    depth: int,
    tol: float,
) -> dict:
    """Words whose every prefix nearly attains the maximal average lam.

    Verifies the hypothesis sup_w f_n(w) = n*lam within tol at every depth,
    and keeps, level by level, the words w with f_m(w[:m]) >= m*lam - tol
    for all m <= n.  Returns depth -> word set.  Both read the same
    lexicographic levels of f_n as ``beta_sandwich``: batched with the
    observable's ``level_values``, with peak memory one full level at the
    cap, else word by word.  Raises ``ResourceCapError`` before evaluating
    anything when ell**depth exceeds ``_WORD_CAP``.
    """
    ell = obs.alphabet_size
    if depth < 1:
        raise InputError("depth must be >= 1")
    survivors = {}
    level = [((), 0)]  # surviving words with their index in the level
    for n, values in enumerate(_levels(obs, depth), start=1):
        sup = max(values)
        if abs(sup - n * lam) > tol * max(1.0, n):
            raise InputError(
                f"hypothesis sup f_n = n*lam fails at depth {n}: "
                f"sup = {sup}, n*lam = {n * lam}"
            )
        level = [
            (w + (i + 1,), k * ell + i)
            for w, k in level
            for i in range(ell)
            if values[k * ell + i] >= n * lam - tol
        ]
        survivors[n] = frozenset(w for w, _ in level)
    return survivors

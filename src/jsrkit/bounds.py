"""Upper and lower bounds for the joint spectral radius of a matrix set.

Lower bounds come from periodic products: rho(L(w))**(1/|w|) never exceeds
the joint spectral radius.  Upper bounds come from depth-n suprema of
averaged submultiplicative norms, and the two are tightened jointly by a
branch-and-bound sweep over the product tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import periodic_values
from .errors import InputError, ResourceCapError
from .matrices import MatrixSet, operator_norm, spectral_radius
from .words import normalize_periodic

__all__ = [
    "JsrBounds",
    "upper_bound_at_depth",
    "lower_bound_periodic",
    "estimate",
]

DEFAULT_PRODUCT_CAP = 2**20
_LOG_FLOOR = math.log(1e-300)


@dataclass(frozen=True)
class JsrBounds:
    """A two-sided enclosure lower <= jsr <= upper with provenance."""

    lower: float
    upper: float
    lower_witness: tuple
    upper_depth: int
    norm_used: str
    converged: bool
    evaluations: int

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _batched_norms(stackd: np.ndarray, norm: str) -> np.ndarray:
    """Chosen submultiplicative norm of each matrix in a (m, d, d) stack."""
    if norm == "op":
        return np.linalg.norm(stackd, ord=2, axis=(1, 2))
    if norm == "max":
        # d * max-entry is submultiplicative, unlike the bare max entry.
        d = stackd.shape[1]
        return d * np.max(np.abs(stackd), axis=(1, 2))
    raise InputError(f"unknown norm {norm!r}; use 'op' or 'max'")


def upper_bound_at_depth(
    ms: MatrixSet, depth: int, norm: str = "op", cap: int = DEFAULT_PRODUCT_CAP
) -> float:
    """Exact sup over all length-``depth`` products of norm(L)**(1/depth).

    Valid as an upper bound on the joint spectral radius for any
    submultiplicative norm; the sequence of depth-n values converges to it
    from above.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    ell = len(ms)
    if ell**depth > cap:
        raise ResourceCapError(f"{ell}**{depth} products exceed the cap of {cap}")
    stack = ms.stack()
    products = stack.copy()
    logs = np.zeros(ell)
    for _ in range(depth - 1):
        products = np.concatenate([a @ products for a in stack])
        logs = np.tile(logs, ell)
        # per-product power-of-two rescale to keep entries in range
        m = np.max(np.abs(products), axis=(1, 2))
        nz = m > 0.0
        e = np.zeros_like(m)
        e[nz] = np.ceil(np.log2(m[nz]))
        products[nz] *= 2.0 ** -e[nz, None, None]
        logs += e * math.log(2.0)
    norms = _batched_norms(products, norm)
    with np.errstate(divide="ignore"):
        lognorms = np.where(norms > 0.0, np.log(np.maximum(norms, 1e-300)), -np.inf)
    best = np.max(lognorms + logs)
    if best == -math.inf:
        return 0.0
    return float(math.exp(best / depth))


def lower_bound_periodic(ms: MatrixSet, max_period: int):
    """Best periodic lower bound up to a period cap.

    Returns ``(value, witness)`` with the witness a primitive word in
    least-rotation form; ties keep the earlier (shorter period, then
    lexicographically smaller) witness.  Candidates are the Lyndon words
    of Duval's algorithm, period by period in lexicographic order, with
    products built over their prefix trie (``cocycle.periodic_values``).
    """
    witness, best = max(periodic_values(ms, max_period), key=lambda t: t[1])
    return float(best), witness


def estimate(
    ms: MatrixSet,
    target_gap: float = 1e-10,
    budget: int = 10**6,
    max_depth: int = 64,
) -> JsrBounds:
    """Branch-and-bound enclosure of the joint spectral radius.

    Walks the product tree breadth-first.  Every visited product improves
    the lower bound through its spectral radius.  For a branch w let
    beta(w) = min over prefixes p of ||L(p)||**(1/|p|); a branch is cut as
    soon as beta(w) <= lower + target_gap/2.  Because any long product
    factors into blocks ending at cut points, the joint spectral radius is
    at most max(lower, max beta over cut branches, max beta over live
    branches), which is the reported upper bound.  The result is
    deterministic given (set, gap, budget).
    """
    if target_gap <= 0.0:
        raise InputError("target_gap must be > 0")
    if max_depth < 1:
        raise InputError("max_depth must be >= 1")
    slack = target_gap / 2.0
    ell = len(ms)
    stack = ms.stack()

    lower = 0.0
    witness = None
    evaluations = 0
    pruned_max = -math.inf  # max log-beta among cut branches

    # frontier entries: (product, log_scale, word, log_beta)
    frontier = []
    for i in range(1, ell + 1):
        a = ms.matrix(i)
        evaluations += 1
        r = spectral_radius(a)
        if r > lower:
            lower = r
            witness = (i,)
        nrm = operator_norm(a)
        logbeta = math.log(nrm) if nrm > 0.0 else -math.inf
        frontier.append((a.copy(), 0.0, (i,), logbeta))

    depth = 1
    while True:
        threshold = math.log(lower + slack) if lower + slack > 0.0 else -math.inf
        live = []
        for entry in frontier:
            if entry[3] > threshold:
                live.append(entry)
            else:
                pruned_max = max(pruned_max, entry[3])
        frontier = live
        if not frontier:
            break
        frontier_max = max(e[3] for e in frontier)
        upper_now = max(lower, math.exp(max(pruned_max, frontier_max)))
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
                    continue  # zero product: the branch dies with rate 0
                e = math.frexp(m)[1]
                ls = logsc
                if abs(e) > 32:
                    p = p * 2.0**-e
                    ls = logsc + e * math.log(2.0)
                w = word + (i,)
                n = len(w)
                r = spectral_radius(p)
                if r > 0.0:
                    val = math.exp((math.log(r) + ls) / n)
                    if val > lower:
                        lower = val
                        witness = normalize_periodic(w)
                nrm = operator_norm(p)
                avg = (math.log(nrm) + ls) / n if nrm > 0.0 else -math.inf
                new_frontier.append((p, ls, w, min(logbeta, avg)))
        frontier = new_frontier
        depth += 1

    candidates = [pruned_max] + [e[3] for e in frontier]
    best_log = max(candidates)
    upper = max(lower, math.exp(best_log) if best_log > -math.inf else 0.0)
    converged = upper - lower <= target_gap
    return JsrBounds(
        lower=float(lower),
        upper=float(upper),
        lower_witness=witness,
        upper_depth=depth,
        norm_used="op",
        converged=converged,
        evaluations=evaluations,
    )

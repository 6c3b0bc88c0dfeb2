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

from .cocycle import _rescale_batch, periodic_values
from .errors import InputError, ResourceCapError
from .matrices import MatrixSet, _eigvals, _op_norms
from .words import normalize_periodic

__all__ = [
    "JsrBounds",
    "upper_bound_at_depth",
    "lower_bound_periodic",
    "estimate",
]

DEFAULT_PRODUCT_CAP = 2**20
_CUT_MARGIN = 1e-9  # relative slack (in logs) on upper_bound_at_depth's cut


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
    stop_reason: str

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _next_level(stack: np.ndarray, products: np.ndarray, logs: np.ndarray):
    """Left-multiply each scaled product by each matrix (symbol-major), then
    rescale each child by 2**-ceil(log2 max-entry) into its log scale."""
    products = np.concatenate([a @ products for a in stack])
    logs = np.tile(logs, len(stack))
    m = np.max(np.abs(products), axis=(1, 2))
    nz = m > 0.0
    e = np.zeros_like(m)
    e[nz] = np.ceil(np.log2(m[nz]))
    products[nz] *= 2.0 ** -e[nz, None, None]
    return products, logs + e * math.log(2.0)


def _log_norms(products: np.ndarray, logs: np.ndarray, norm: str) -> np.ndarray:
    """Log of the chosen submultiplicative norm of each scaled product."""
    if norm == "op":
        norms = _op_norms(products)
    else:
        # d * max-entry is submultiplicative, unlike the bare max entry.
        norms = products.shape[1] * np.max(np.abs(products), axis=(1, 2))
    with np.errstate(divide="ignore"):
        lognorms = np.where(norms > 0.0, np.log(np.maximum(norms, 1e-300)), -np.inf)
    return lognorms + logs


def upper_bound_at_depth(
    ms: MatrixSet, depth: int, norm: str = "op", cap: int = DEFAULT_PRODUCT_CAP
) -> float:
    """Exact sup over all length-``depth`` products of norm(L)**(1/depth).

    Valid as an upper bound on the joint spectral radius for any
    submultiplicative norm; the sequence of depth-n values converges to it
    from above.

    A branch-and-bound over the product tree gives the same float as
    enumerating all ell**n products.  Every length-n product is S·P with
    |P| = k, so norm(S·P) <= M[n-k]·norm(P), M[j] the exact depth-j
    maximum.  Levels 1..h = ceil(n/2) are built in full and give M[1..n-h];
    the incumbent is the best of the full subtree below the top level-h
    prefix.  From level h on, a prefix is extended only if its split bound
    reaches the incumbent less a relative margin of ``_CUT_MARGIN`` (in
    logs), far above the rounding in the bound.  A product's bits depend
    only on its own chain of multiplications and power-of-two rescales,
    and norms are taken matrix by matrix, so the maximum over the kept
    products is the full enumeration's maximum.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    ell = len(ms)
    if ell**depth > cap:
        raise ResourceCapError(f"{ell}**{depth} products exceed the cap of {cap}")
    if norm not in ("op", "max"):
        raise InputError(f"unknown norm {norm!r}; use 'op' or 'max'")
    stack = ms.stack()
    half = (depth + 1) // 2
    products, logs = stack.copy(), np.zeros(ell)
    lognorms = _log_norms(products, logs, norm)
    peak = [-math.inf, np.max(lognorms)]  # peak[j] = M[j]
    for _ in range(half - 1):
        products, logs = _next_level(stack, products, logs)
        lognorms = _log_norms(products, logs, norm)
        peak.append(np.max(lognorms))
    top = int(np.argmax(lognorms))
    sub, sub_logs = products[top : top + 1], logs[top : top + 1]
    for _ in range(depth - half):
        sub, sub_logs = _next_level(stack, sub, sub_logs)
    best = np.max(_log_norms(sub, sub_logs, norm))
    floor = best - _CUT_MARGIN * max(1.0, abs(best))
    for k in range(half, depth):
        keep = lognorms + peak[depth - k] >= floor
        products, logs = _next_level(stack, products[keep], logs[keep])
        lognorms = _log_norms(products, logs, norm)
    best = np.max(lognorms, initial=best)
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
    branches), which is the reported upper bound.

    Each level of the tree is one batched step over the frontier, a
    (F, d, d) stack of scaled products: one matmul extends it by every
    symbol (children entry-major, then by symbol), and one eigensolver and
    one SVD call evaluate the new level.  ``stop_reason`` names the first
    check that ended the sweep: ``frontier_empty``, ``gap``, ``max_depth``
    or ``budget``.  The result is deterministic given the arguments.
    """
    if not target_gap > 0.0:  # NaN included
        raise InputError("target_gap must be > 0")
    if max_depth < 1:
        raise InputError("max_depth must be >= 1")
    slack = target_gap / 2.0
    ell, d = len(ms), ms.dim
    stack = ms.stack()
    symbols = np.arange(1, ell + 1, dtype=np.min_scalar_type(ell))

    products, log_scale = stack.copy(), np.zeros(ell)
    words, log_beta = symbols[:, None], np.full(ell, math.inf)
    lower, witness, evaluations, depth = 0.0, None, ell, 1
    pruned_max = -math.inf  # max log-beta among cut branches
    stop_reason = None
    while stop_reason is None:
        radii = np.abs(_eigvals(products)).max(axis=1).tolist()
        norms = _op_norms(products).tolist()
        scales = log_scale.tolist()
        # scalar log/exp: numpy's differ from them in the last bit; the
        # single matrices keep their raw spectral radii
        if depth > 1:
            radii = [
                math.exp((math.log(r) + s) / depth) if r > 0.0 else 0.0
                for r, s in zip(radii, scales)
            ]
        best = max(radii, default=0.0)
        if best > lower:  # the first strict maximum in child order
            lower = best
            witness = normalize_periodic(words[radii.index(best)].tolist())
        log_beta = np.minimum(log_beta, [
            (math.log(x) + s) / depth if x > 0.0 else -math.inf
            for x, s in zip(norms, scales)
        ])

        live = log_beta > math.log(lower + slack)
        pruned_max = max(pruned_max, float(log_beta[~live].max(initial=-math.inf)))
        products, log_scale = products[live], log_scale[live]
        words, log_beta = words[live], log_beta[live]
        frontier_max = float(log_beta.max(initial=-math.inf))
        upper = max(lower, math.exp(max(pruned_max, frontier_max)))
        if not live.any():
            stop_reason = "frontier_empty"
        elif upper - lower <= target_gap:
            stop_reason = "gap"
        elif depth >= max_depth:
            stop_reason = "max_depth"
        elif evaluations + len(log_beta) * ell > budget:
            stop_reason = "budget"
        else:
            products = (stack[None] @ products[:, None]).reshape(-1, d, d)
            evaluations += len(products)
            m = np.abs(products).max(axis=(1, 2))
            nonzero = m > 0.0  # a zero product: the branch dies with rate 0
            products, m = products[nonzero], m[nonzero]
            log_scale = np.repeat(log_scale, ell)[nonzero]
            log_beta = np.repeat(log_beta, ell)[nonzero]
            words = np.hstack([
                np.repeat(words, ell, axis=0), np.tile(symbols, len(words))[:, None]
            ])[nonzero]
            _rescale_batch(products, log_scale, m)
            depth += 1

    return JsrBounds(
        lower=float(lower),
        upper=float(upper),
        lower_witness=witness,
        upper_depth=depth,
        norm_used="op",
        converged=upper - lower <= target_gap,
        evaluations=evaluations,
        stop_reason=stop_reason,
    )

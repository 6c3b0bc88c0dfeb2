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

from .cocycle import _extend, _log_norms, _rates, periodic_values
from .errors import InputError, ResourceCapError
from .matrices import MatrixSet
from .words import normalize_periodic

__all__ = [
    "JsrBounds",
    "upper_bound_at_depth",
    "lower_bound_periodic",
    "estimate",
]

_PRODUCT_CAP = 2**20  # products upper_bound_at_depth may build at most
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

    def to_json(self) -> dict:
        """The enclosure as every report prints it: the fields and ``gap``."""
        return {
            "lower": self.lower,
            "upper": self.upper,
            "gap": self.gap,
            "lower_witness": list(self.lower_witness or ()),
            "upper_depth": self.upper_depth,
            "norm_used": self.norm_used,
            "converged": self.converged,
            "evaluations": self.evaluations,
            "stop_reason": self.stop_reason,
        }


def upper_bound_at_depth(ms: MatrixSet, depth: int, norm: str = "op") -> float:
    """Exact sup over all length-``depth`` products of norm(L)**(1/depth).

    Valid as an upper bound on the joint spectral radius for any
    submultiplicative norm; the sequence of depth-n values converges to it
    from above.  ``norm`` is ``op`` or ``max`` (d times the max-entry
    norm).  Raises ``ResourceCapError`` before building anything when
    ell**depth exceeds ``_PRODUCT_CAP``.

    A branch-and-bound over the product tree gives the same float as
    enumerating all ell**n products.  Every length-n product is S·P with
    |P| = k, so norm(S·P) <= M[n-k]·norm(P), M[j] the exact depth-j
    maximum.  Levels 1..h = ceil(n/2) are built in full from the identity
    (``cocycle._extend``) and give M[1..n-h]; the incumbent is the best of
    the full subtree below the top level-h prefix.  From level h on, a
    prefix is extended only if its split bound reaches the incumbent less
    a relative margin of ``_CUT_MARGIN`` (in logs), far above the rounding
    in the bound.  A product's bits depend only on its own chain of
    multiplications and power-of-two rescales, and norms are taken matrix
    by matrix, so the maximum over the kept products is the full
    enumeration's maximum, and the last level of ``word_log_norms``.  The
    root exp(max/n) is rounded up one ulp (0 stays 0): to nearest,
    exp(log(3**5)/5) is 2.9999999999999996, below an exact radius 3.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    ell = len(ms)
    if ell**depth > _PRODUCT_CAP:
        raise ResourceCapError(f"{ell}**{depth} products exceed the cap of {_PRODUCT_CAP}")
    stack = ms.stack()
    half = (depth + 1) // 2
    products, logs = np.eye(ms.dim, dtype=np.complex128)[None], np.zeros(1)
    peak = [-math.inf]  # peak[j] = M[j]
    for _ in range(half):
        products, logs, _ = _extend(stack, products, logs)
        lognorms = _log_norms(products, logs, norm)
        peak.append(np.max(lognorms))
    top = int(np.argmax(lognorms))
    sub, sub_logs = products[top : top + 1], logs[top : top + 1]
    for _ in range(depth - half):
        sub, sub_logs, _ = _extend(stack, sub, sub_logs)
    best = np.max(_log_norms(sub, sub_logs, norm))
    floor = best - _CUT_MARGIN * max(1.0, abs(best))
    for k in range(half, depth):
        keep = lognorms + peak[depth - k] >= floor
        products, logs, _ = _extend(stack, products[keep], logs[keep])
        lognorms = _log_norms(products, logs, norm)
    root = math.exp(np.max(lognorms, initial=best) / depth)
    return math.nextafter(root, math.inf) if root > 0.0 else 0.0


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
    (F, d, d) stack of scaled products: ``cocycle._extend`` extends it by
    every symbol (children entry-major, then by symbol), and ``_rates`` and
    ``_log_norms`` read the new level with one eigensolver and one SVD
    call.  ``stop_reason`` names the first check that ended the sweep:
    ``frontier_empty``, ``gap``, ``max_depth`` or ``budget``.  The result
    is deterministic given the arguments.
    """
    if not target_gap > 0.0:  # NaN included
        raise InputError("target_gap must be > 0")
    if max_depth < 1:
        raise InputError("max_depth must be >= 1")
    slack = target_gap / 2.0
    ell = len(ms)
    stack = ms.stack()
    symbols = np.arange(1, ell + 1, dtype=np.min_scalar_type(ell))

    # level 1 is the raw matrices: unscaled, so _rates keeps their radii
    products, log_scale = stack.copy(), np.zeros(ell)
    words, log_beta = symbols[:, None], np.full(ell, math.inf)
    lower, witness, evaluations, depth = 0.0, None, ell, 1
    pruned_max = -math.inf  # max log-beta among cut branches
    stop_reason = None
    while stop_reason is None:
        radii = _rates(products, log_scale, depth)
        best = max(radii, default=0.0)
        if best > lower:  # the first strict maximum in child order
            lower = best
            witness = normalize_periodic(words[radii.index(best)].tolist())
        log_beta = np.minimum(log_beta, _log_norms(products, log_scale, "op") / depth)

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
            products, log_scale, m = _extend(stack, products, log_scale)
            evaluations += len(products)
            nonzero = m > 0.0  # a zero product: the branch dies with rate 0
            products, log_scale = products[nonzero], log_scale[nonzero]
            log_beta = np.repeat(log_beta, ell)[nonzero]
            words = np.hstack([
                np.repeat(words, ell, axis=0), np.tile(symbols, len(words))[:, None]
            ])[nonzero]
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

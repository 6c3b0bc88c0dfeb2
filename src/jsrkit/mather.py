"""Outer approximation of the set of growth-maximising switching sequences.

A length-n word survives at growth rate rho_hat and tolerance tol when the
induced norm of every prefix product stays above (1 - tol) * rho_hat**m.
Survivor sets are built level by level so that two structural facts hold
exactly by construction: every prefix of a survivor is a survivor, and the
one-step shift of a survivor is a survivor one level down.  The depth-n
survivors over-approximate the depth-n language of the maximising set
whenever the supplied norm is extremal and rho_hat is at least the true
growth rate.  ``certified_approx`` finds such a norm and rate first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import reducibility
from .bounds import JsrBounds, estimate
from .cocycle import _rates, _rescale, evaluate
from .errors import InconsistencyError, InputError, NumericalError, ResourceCapError
from .matrices import MatrixSet
from .norms import NormModel, candidate_norms, check_extremal, classify_extremality
from .norms import barabanov_iterate
from .words import WordGraph, strongly_connected_components

__all__ = [
    "MatherApprox",
    "build_mather_approx",
    "CertifiedApprox",
    "certified_approx",
    "recurrent_ratio_check",
    "mean_distance_to_core",
    "MinimalSetDiagnostic",
    "minimal_set_diagnostic",
    "find_extremal_prefix",
]


@dataclass(frozen=True)
class MatherApprox:
    """Per-depth survivor word sets with their de Bruijn graph."""

    matrix_set: MatrixSet
    norm: NormModel
    rho_hat: float
    tol: float
    depths: tuple
    survivors: dict  # depth -> frozenset of words
    min_ratio: float  # min over survivors and prefixes of nu(L)/rho_hat**m
    graph: WordGraph = field(default=None)

    @property
    def max_depth(self) -> int:
        return self.depths[-1]

    def trace(self, w) -> list:
        """nu(L(w, m))/rho_hat**m for m = 1..|w| (recomputed): the ratio
        trace of ``norms.classify_extremality``."""
        return classify_extremality(self.matrix_set, self.norm, self.rho_hat, w)[1]

    def is_full_language(self) -> bool:
        """Does every word of the deepest level survive?"""
        n = self.max_depth
        return len(self.survivors[n]) == len(self.matrix_set) ** n


def _survivor_step(ms, norm, p, ls, i, n, logr, floor):
    """Extend the scaled product (p, ls) of a length-(n-1) word by symbol i.

    Returns ``(product, log_scale, log ratio)`` with the log ratio
    log(nu(L)/rho_hat**n), or None when that ratio is below ``floor``.
    """
    p, ls = _rescale(ms.matrix(i) @ p, ls)
    nu = norm.induced(p)
    lognu = math.log(nu) + ls - n * logr if nu > 0.0 else -math.inf
    return (p, ls, lognu) if lognu >= floor else None


def build_mather_approx(
    ms: MatrixSet,
    norm: NormModel,
    rho_hat: float,
    max_depth: int,
    tol: float = 5e-3,
) -> MatherApprox:
    """Survivor sets by incremental one-symbol extension.

    Raises an inconsistency error when some level empties: at the exact
    growth rate under an exact extremal norm every level is nonempty, so
    emptiness signals rho_hat too high or tol too tight.
    """
    if max_depth < 1:
        raise InputError("max_depth must be >= 1")
    if rho_hat <= 0.0:
        raise InputError("rho_hat must be positive")
    if not 0.0 < tol < 1.0:
        raise InputError("tol must lie in (0, 1)")
    ok, violation = check_extremal(norm, ms, rho_hat, tol)
    if not ok:
        raise InputError(
            f"norm is not extremal at rho_hat={rho_hat} (violation {violation:.3g})"
        )
    logr = math.log(rho_hat)
    floor = math.log1p(-tol)
    ell = len(ms)
    min_ratio_log = math.inf

    # level entries: word -> (scaled product, log_scale), from the empty word
    level = {(): (np.eye(ms.dim, dtype=np.complex128), 0.0)}
    survivors = {}
    for n in range(1, max_depth + 1):
        new_level = {}
        for w, (p, ls) in level.items():
            for i in range(1, ell + 1):
                nw = w + (i,)
                if nw[1:] not in level:  # the shift of a survivor survives
                    continue
                step = _survivor_step(ms, norm, p, ls, i, n, logr, floor)
                if step is not None:
                    new_level[nw] = step[:2]
                    min_ratio_log = min(min_ratio_log, step[2])
        if not new_level:
            raise InconsistencyError(
                f"survivor set empties at depth {n}; "
                "rho_hat is too high or tol too tight"
            )
        level = new_level
        survivors[n] = frozenset(level)
    graph = WordGraph(depth=max_depth, nodes=survivors[max_depth])
    return MatherApprox(
        matrix_set=ms,
        norm=norm,
        rho_hat=rho_hat,
        tol=tol,
        depths=tuple(range(1, max_depth + 1)),
        survivors=survivors,
        min_ratio=float(math.exp(min_ratio_log)),
        graph=graph,
    )


@dataclass(frozen=True)
class CertifiedApprox:
    """Survivor sets under a certified norm, with the path that built them.

    ``certified_by`` is a candidate norm kind or ``barabanov``.  When
    ``triangularised``, ``approx`` and ``bounds`` refer to the diagonal
    block that carries the growth rate.
    """

    approx: MatherApprox
    bounds: JsrBounds
    certified_by: str
    triangularised: bool


def _rate(ms: MatrixSet, norm: NormModel) -> float:
    return max(norm.induced(a) for a in ms.matrices)


def _certified_norm(ms, budget, seed):
    """(norm, rate, source) of the first norm whose rate max_i nu_ind(A_i)
    is within budget: candidates, then Barabanov for real 2x2 sets.  None
    if no norm passes."""
    for cand in candidate_norms(ms):
        rho_c = _rate(ms, cand)
        if rho_c <= budget:
            return cand, rho_c, cand.kind
    if not (ms.dim == 2 and ms.is_real()):
        return None
    try:
        cert = barabanov_iterate(
            ms, resolution=512, tol=1e-8, max_iters=20000, seed=seed
        )
    except (InputError, NumericalError):
        return None
    rho_c = _rate(ms, cert.norm)
    return (cert.norm, rho_c, "barabanov") if rho_c <= budget else None


def _approx_under_certified_norm(ms, est, depth, tol, seed):
    """(approx, source), or None when no norm certifies a rate within
    est.lower * (1 + tol)."""
    if est.lower <= 0.0:
        return None
    found = _certified_norm(ms, est.lower * (1.0 + tol), seed)
    if found is None:
        return None
    norm, rho_c, source = found
    approx = build_mather_approx(ms, norm, rho_c, max_depth=depth, tol=tol)
    return approx, source


def _growth_block(tri, floor, gap):
    """(blocks, estimate) of the first diagonal block, upper then lower,
    whose estimated upper bound reaches ``floor``.  The JSR of a
    block-triangular set is the larger of its blocks' JSRs, so a block
    below a lower bound on it cannot carry the growth rate."""
    for blocks in (tri.upper_blocks, tri.lower_blocks):
        est = estimate(blocks, target_gap=gap, max_depth=24)
        if est.upper >= floor:
            return blocks, est
    raise NumericalError(
        f"neither diagonal block reaches the growth rate: both block upper "
        f"bounds lie below {floor:.12g}"
    )


def certified_approx(
    ms: MatrixSet, est: JsrBounds, depth: int, tol: float, seed: int, gap: float
) -> CertifiedApprox:
    """Certify the growth rate of ``ms`` with an extremal norm and build the
    depth-``depth`` survivor sets under it; ``est`` encloses its JSR.

    When no norm certifies and the set is reducible with unbounded
    products, the diagonal block that carries the growth rate -- the upper
    one unless its upper bound falls below ``est.lower * (1 - tol)`` -- is
    re-estimated (``target_gap=gap``, depth 24) and run through the same
    steps once more.  Raises ``NumericalError`` when no norm certifies or
    neither block reaches the growth rate, ``InconsistencyError`` when the
    survivor sets empty.
    """
    triangularised = False
    found = _approx_under_certified_norm(ms, est, depth, tol, seed)
    if found is None:
        try:
            sub = reducibility.find_common_invariant_subspace(ms)
        except NumericalError:
            sub = None
        if (
            sub is not None
            and reducibility.product_boundedness(ms).status != "Bounded"
        ):
            tri = reducibility.triangularise(ms, seed=seed)
            ms, est = _growth_block(tri, est.lower * (1.0 - tol), gap)
            triangularised = True
            found = _approx_under_certified_norm(ms, est, depth, tol, seed)
    if found is None:
        raise NumericalError(
            "no extremal norm could be certified; Barabanov iteration failed "
            "or does not apply"
        )
    approx, source = found
    return CertifiedApprox(approx, est, source, triangularised)


# simple cycles recurrent_ratio_check examines at most
_CYCLE_CAP = 20_000


def recurrent_ratio_check(approx: MatherApprox) -> dict:
    """Spectral-radius ratios of cycles in the survivor graph.

    Every point of the maximising set is recurrent, so some cycle of the
    survivor graph should achieve spectral_radius(L(c))**(1/|c|) close to
    rho_hat.  Walks the simple cycles of length <= max_depth in (period,
    lex) order of their least rotations, up to ``_CYCLE_CAP`` of them and
    stopping at the first to reach 1 - 10*tol; reports max ratio and pass.
    """
    ms = approx.matrix_set
    threshold = 1.0 - 10.0 * approx.tol
    best = -math.inf
    best_cycle = None
    count = 0
    for cycle in approx.graph.cycles(approx.max_depth):
        count += 1
        cv = evaluate(ms, cycle)
        rate = _rates(cv.product[None], np.array([cv.log_scale]), len(cycle))[0]
        ratio = rate / approx.rho_hat
        if ratio > best:
            best = ratio
            best_cycle = cv.word
        if best >= threshold or count >= _CYCLE_CAP:
            break
    return {
        "max_ratio": best if count else None,
        "best_cycle": best_cycle,
        "cycles_examined": count,
        "pass": bool(count and best >= threshold),
        "threshold": threshold,
    }


def mean_distance_to_core(approx: MatherApprox, w) -> list:
    """Running Cesaro averages of window distances to the survivor set.

    Window k is w[k : k+n] with n the approximation depth; its distance is
    the smallest 2^-metric distance to any depth-n survivor, which equals
    2**-(L+1) with L the longest prefix shared with a survivor.
    """
    w = tuple(w)
    n = approx.max_depth
    if len(w) < n:
        raise InputError("word must be at least as long as the depth")
    survivors = approx.survivors[n]
    prefix_sets = [frozenset(s[:m] for s in survivors) for m in range(n + 1)]
    averages = []
    total = 0.0
    for k in range(len(w) - n + 1):
        window = w[k : k + n]
        if window in survivors:
            dist = 0.0
        else:
            shared = 0
            for m in range(n, 0, -1):
                if window[:m] in prefix_sets[m]:
                    shared = m
                    break
            dist = 2.0 ** -(shared + 1)
        total += dist
        averages.append(total / (k + 1))
    return averages


@dataclass(frozen=True)
class MinimalSetDiagnostic:
    """UniqueSCC supports the unbounded-agreements property heuristically;
    MultipleSCC refutes it at the resolution of the approximation."""

    kind: str  # "UniqueSCC" or "MultipleSCC"
    count: int


def minimal_set_diagnostic(approx: MatherApprox) -> MinimalSetDiagnostic:
    comps = strongly_connected_components(approx.graph)
    if len(comps) == 1:
        return MinimalSetDiagnostic(kind="UniqueSCC", count=1)
    return MinimalSetDiagnostic(kind="MultipleSCC", count=len(comps))


# one-symbol extensions find_extremal_prefix may evaluate before it gives up
_PREFIX_BUDGET = 20_000
# length of the trailing window find_extremal_prefix looks for a recurrence of
_RECURRENCE_WINDOW = 3


def find_extremal_prefix(
    ms: MatrixSet,
    norm: NormModel,
    rho_hat: float,
    length: int,
    eps: float = 5e-3,
) -> tuple:
    """Depth-first search for one length-N word whose prefixes all survive.

    Candidate symbols at each step are ordered recurrence-first: symbols
    whose new trailing window of ``_RECURRENCE_WINDOW`` symbols already
    occurred earlier in the prefix are preferred, with lexicographic order
    breaking ties.  Each extension is the survival step of
    ``build_mather_approx``.  Exhaustion raises an inconsistency error with
    the same semantics as a build failure.  The search evaluates at most
    ``_PREFIX_BUDGET`` one-symbol extensions and raises
    ``ResourceCapError`` when it needs more.
    """
    if length < 1:
        raise InputError("length must be >= 1")
    if rho_hat <= 0.0:
        raise InputError("rho_hat must be positive")
    logr = math.log(rho_hat)
    floor = math.log1p(-eps)
    ell = len(ms)

    def ordered_symbols(word):
        seen = {
            word[j : j + _RECURRENCE_WINDOW]
            for j in range(len(word) - _RECURRENCE_WINDOW + 1)
        }
        recur = [
            i for i in range(1, ell + 1) if (word + (i,))[-_RECURRENCE_WINDOW:] in seen
        ]
        rest = [i for i in range(1, ell + 1) if i not in recur]
        return recur + rest

    eye = np.eye(ms.dim, dtype=np.complex128)
    stack = [((), eye, 0.0, ordered_symbols(()))]
    budget = _PREFIX_BUDGET
    while stack:
        word, p, ls, pending = stack[-1]
        if len(word) == length:
            return word
        if not pending:
            stack.pop()
            continue
        if budget == 0:
            raise ResourceCapError(
                f"no length-{length} word found within the evaluation budget"
            )
        budget -= 1
        i = pending.pop(0)
        step = _survivor_step(ms, norm, p, ls, i, len(word) + 1, logr, floor)
        if step is not None:
            nw = word + (i,)
            stack.append((nw, step[0], step[1], ordered_symbols(nw)))
    raise InconsistencyError(
        f"no length-{length} word survives at eps={eps}; "
        "rho_hat is too high or eps too tight"
    )

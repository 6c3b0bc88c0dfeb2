"""Outer approximation of the set of growth-maximising switching sequences.

A length-n word survives at growth rate rho_hat and tolerance tol when the
induced norm of every prefix product stays above (1 - tol) * rho_hat**m.
Survivor sets are built level by level so that two structural facts hold
exactly by construction: every prefix of a survivor is a survivor, and the
one-step shift of a survivor is a survivor one level down.  The depth-n
survivors over-approximate the depth-n language of the maximising set
whenever the supplied norm is extremal and rho_hat is at least the true
growth rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import _rescale, evaluate, prefix_values
from .errors import InconsistencyError, InputError
from .matrices import MatrixSet, spectral_radius
from .norms import NormModel, check_extremal
from .words import WordGraph, strongly_connected_components

__all__ = [
    "MatherApprox",
    "build_mather_approx",
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
        """nu(L(w, m))/rho_hat**m for m = 1..|w| (recomputed)."""
        out = []
        logr = math.log(self.rho_hat)
        for cv in prefix_values(self.matrix_set, w):
            nu = self.norm.induced(cv.product)
            lognu = math.log(nu) + cv.log_scale if nu > 0.0 else -math.inf
            out.append(math.exp(lognu - len(cv.word) * logr))
        return out

    def is_full_language(self, depth: int = None) -> bool:
        depth = self.max_depth if depth is None else depth
        return len(self.survivors[depth]) == len(self.matrix_set) ** depth


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

    # level entries: word -> (scaled product, log_scale)
    level = {}
    for i in range(1, ell + 1):
        a = ms.matrix(i)
        nu = norm.induced(a)
        lognu = math.log(nu) - logr if nu > 0.0 else -math.inf
        if lognu >= floor:
            level[(i,)] = (a.copy(), 0.0)
            min_ratio_log = min(min_ratio_log, lognu)
    survivors = {1: frozenset(level)}
    if not level:
        raise InconsistencyError(
            "no length-1 word survives; rho_hat is too high or tol too tight"
        )
    for n in range(2, max_depth + 1):
        new_level = {}
        prev = survivors[n - 1]
        for w, (p, ls) in level.items():
            for i in range(1, ell + 1):
                nw = w + (i,)
                if nw[1:] not in prev:
                    continue
                np_, nls = _rescale(ms.matrix(i) @ p, ls)
                nu = norm.induced(np_)
                lognu = (
                    math.log(nu) + nls - n * logr if nu > 0.0 else -math.inf
                )
                if lognu >= floor:
                    new_level[nw] = (np_, nls)
                    min_ratio_log = min(min_ratio_log, lognu)
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


def recurrent_ratio_check(
    approx: MatherApprox, length_bound: int = None, cycle_cap: int = 20000
) -> dict:
    """Spectral-radius ratios of cycles in the survivor graph.

    Every point of the maximising set is recurrent, so some cycle of the
    survivor graph should achieve spectral_radius(L(c))**(1/|c|) close to
    rho_hat.  Enumerates simple cycles (early exit once the pass level is
    reached), reporting the max ratio and a pass flag at 1 - 10*tol.
    """
    ms = approx.matrix_set
    length_bound = length_bound or approx.max_depth
    threshold = 1.0 - 10.0 * approx.tol
    best = -math.inf
    best_cycle = None
    count = 0
    for cycle in approx.graph.cycles(length_bound=length_bound):
        count += 1
        cv = evaluate(ms, cycle)
        r = spectral_radius(cv.product)
        ratio = (
            math.exp((math.log(r) + cv.log_scale) / len(cycle)) / approx.rho_hat
            if r > 0.0
            else 0.0
        )
        if ratio > best:
            best = ratio
            best_cycle = cv.word
        if best >= threshold or count >= cycle_cap:
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


def find_extremal_prefix(
    ms: MatrixSet,
    norm: NormModel,
    rho_hat: float,
    length: int,
    eps: float = 5e-3,
    window: int = 3,
) -> tuple:
    """Depth-first search for one length-N word whose prefixes all survive.

    Candidate symbols at each step are ordered recurrence-first: symbols
    whose new trailing window already occurred earlier in the prefix are
    preferred, with lexicographic order breaking ties.  Exhaustion raises
    an inconsistency error with the same semantics as a build failure.
    """
    if length < 1:
        raise InputError("length must be >= 1")
    if rho_hat <= 0.0:
        raise InputError("rho_hat must be positive")
    logr = math.log(rho_hat)
    floor = math.log1p(-eps)
    ell = len(ms)

    def surviving(word, p, ls, i):
        np_, nls = _rescale(ms.matrix(i) @ p, ls)
        nu = norm.induced(np_)
        lognu = math.log(nu) + nls - (len(word) + 1) * logr if nu > 0.0 else -math.inf
        if lognu >= floor:
            return np_, nls
        return None

    def ordered_symbols(word):
        seen = {
            word[j : j + window]
            for j in range(len(word) - window + 1)
        }
        recur = [
            i
            for i in range(1, ell + 1)
            if len(word) + 1 >= window and (word + (i,))[-window:] in seen
        ]
        rest = [i for i in range(1, ell + 1) if i not in recur]
        return recur + rest

    eye = np.eye(ms.dim, dtype=np.complex128)
    stack = [((), eye, 0.0, ordered_symbols(()))]
    while stack:
        word, p, ls, pending = stack[-1]
        if len(word) == length:
            return word
        if not pending:
            stack.pop()
            continue
        i = pending.pop(0)
        nxt = surviving(word, p, ls, i)
        if nxt is not None:
            nw = word + (i,)
            stack.append((nw, nxt[0], nxt[1], ordered_symbols(nw)))
    raise InconsistencyError(
        f"no length-{length} word survives at eps={eps}; "
        "rho_hat is too high or eps too tight"
    )

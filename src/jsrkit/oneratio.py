"""Optimal symbol-frequency (i-ratio) estimation from periodic maximisers.

When all fast-growing switching sequences share an asymptotic frequency of
a given symbol, that frequency is located by collecting the near-optimal
periodic products and comparing their symbol frequencies; a small spread
among the near-optimal witnesses is evidence of uniqueness.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass

from .cocycle import periodic_values
from .errors import InputError
from .mather import find_extremal_prefix
from .matrices import MatrixSet
from .norms import kozyakin_extremal_witness
from .words import symbol_frequency

__all__ = [
    "RatioEstimate",
    "optimal_periodic_ratio",
    "ratio_equivalence_check",
    "ratio_curve",
]


@dataclass(frozen=True)
class RatioEstimate:
    """Estimated optimal frequency of one symbol with near-optimal spread."""

    symbol: int
    gamma: float
    spread: float
    witnesses: tuple  # ((word, value), ...) near-optimal periodic words
    unique_flag: bool
    max_period: int
    slack: float


def optimal_periodic_ratio(
    ms: MatrixSet, symbol: int, max_period: int = 8, slack: float = 1e-6
) -> RatioEstimate:
    """Frequency of ``symbol`` among near-optimal periodic products.

    Collects every primitive periodic word whose averaged spectral radius
    is within a relative ``slack`` of the best found; gamma is read off
    the best witness (earliest by period then lexicographic on ties), the
    spread is max - min frequency over the collection, and the uniqueness
    flag requires spread <= 2/max_period.
    """
    if not 1 <= symbol <= len(ms):
        raise InputError(f"symbol {symbol} outside 1..{len(ms)}")
    scored = periodic_values(ms, max_period)
    best = max(val for _, val in scored)
    if best <= 0.0:
        # every periodic product is nilpotent; no frequency information
        return RatioEstimate(
            symbol=symbol,
            gamma=math.nan,
            spread=1.0,
            witnesses=(),
            unique_flag=False,
            max_period=max_period,
            slack=slack,
        )
    cutoff = (1.0 - slack) * best
    near = [(w, val) for (w, val) in scored if val >= cutoff]
    freqs = [symbol_frequency(w, symbol) for (w, _) in near]
    # earliest witness attaining the best value
    best_word = next(w for w, val in near if val >= best * (1.0 - 1e-15))
    spread = max(freqs) - min(freqs)
    return RatioEstimate(
        symbol=symbol,
        gamma=symbol_frequency(best_word, symbol),
        spread=spread,
        witnesses=tuple(near),
        unique_flag=spread <= 2.0 / max_period,
        max_period=max_period,
        slack=slack,
    )


def ratio_equivalence_check(
    ms: MatrixSet, symbol: int, approx, max_period: int = 8
) -> dict:
    """Cross-check four frequency ranges that should agree when the optimal
    ratio is unique.

    Ranges: (a) near-optimal periodic witnesses, (b) depth-n survivor
    words, (c) the extremal-prefix search word, (d) survivor words that
    admit a norm-tracking unit vector (``kozyakin_extremal_witness``, within
    ``norms._KOZYAKIN_TOL``).  Reports the ranges and whether all nonempty
    ones mutually overlap within 2/n.
    """
    n = approx.max_depth
    est = optimal_periodic_ratio(ms, symbol, max_period=max_period)
    ranges = {}
    if est.witnesses:
        f = [symbol_frequency(w, symbol) for (w, _) in est.witnesses]
        ranges["periodic"] = (min(f), max(f))
    survivors = sorted(approx.survivors[n])
    f = [symbol_frequency(w, symbol) for w in survivors]
    ranges["survivors"] = (min(f), max(f))
    prefix_word = find_extremal_prefix(
        ms, approx.norm, approx.rho_hat, n, eps=approx.tol
    )
    fp = symbol_frequency(prefix_word, symbol)
    ranges["extremal_prefix"] = (fp, fp)
    koz = []
    for w in survivors:
        if kozyakin_extremal_witness(ms, approx.norm, approx.rho_hat, w) is not None:
            koz.append(symbol_frequency(w, symbol))
    if koz:
        ranges["kozyakin"] = (min(koz), max(koz))
    tol = 2.0 / n
    keys = list(ranges)
    overlap = all(
        ranges[a][0] <= ranges[b][1] + tol and ranges[b][0] <= ranges[a][1] + tol
        for a in keys
        for b in keys
    )
    return {
        "symbol": symbol,
        "ranges": ranges,
        "overlap_tol": tol,
        "mutual_overlap": overlap,
        "extremal_prefix_word": prefix_word,
    }


def ratio_curve(
    family, alphas, symbol: int, max_period: int = 10, slack: float = 1e-6
) -> dict:
    """Optimal-ratio curve over a parametrised family of matrix sets.

    ``family`` maps a parameter value to a MatrixSet; every point runs
    ``optimal_periodic_ratio`` at ``slack``.  Returns per-point
    rows (alpha, gamma, spread, unique, witness) plus the maximum adjacent
    jump of gamma restricted to consecutive points both flagged unique.
    """
    rows = []
    for alpha in alphas:
        ms = family(alpha)
        est = optimal_periodic_ratio(
            ms, symbol, max_period=max_period, slack=slack
        )
        witness = ()
        if est.witnesses:
            witness = max(est.witnesses, key=lambda t: t[1])[0]
        rows.append(
            {
                "alpha": float(alpha),
                "gamma": est.gamma,
                "spread": est.spread,
                "unique": est.unique_flag,
                "witness": witness,
            }
        )
    max_jump = 0.0
    for a, b in zip(rows, rows[1:]):
        if a["unique"] and b["unique"]:
            max_jump = max(max_jump, abs(b["gamma"] - a["gamma"]))
    return {"rows": rows, "max_adjacent_jump": max_jump, "symbol": symbol}


def ratio_curve_csv(curve: dict) -> str:
    """CSV rendering with header alpha,gamma,spread,unique,witness."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["alpha", "gamma", "spread", "unique", "witness"])
    for row in curve["rows"]:
        writer.writerow(
            [
                repr(row["alpha"]),
                repr(row["gamma"]),
                repr(row["spread"]),
                str(row["unique"]).lower(),
                "".join(str(s) for s in row["witness"]),
            ]
        )
    return buf.getvalue()

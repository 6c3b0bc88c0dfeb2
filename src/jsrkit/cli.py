"""Command-line front end.

Commands: estimate, bounds, triangularise, barabanov, mather, stability,
one-ratio, beta.  Structured output is JSON (floats serialised with full
round-trip precision), curves are CSV, graphs are DOT.  Exit codes:
0 success, 2 malformed input, 3 resource cap exceeded, 4 numerical failure.
Commands parse flags, call the library (``mather``: ``estimate``, then
``mather.certified_approx``) and print.  Configuration is taken from flags
only; every tolerance, seed and depth consumed is echoed back in the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import bounds as jsr_bounds
from . import mather as mather_mod
from . import norms as norms_mod
from . import oneratio, reducibility, stability, subadditive
from .errors import InputError, NumericalError, ResourceCapError
from .families import FAMILIES
from .matrices import MatrixSet

__all__ = ["main"]

_GRID_POINT_CAP = 10_000  # each grid point is one full ratio analysis


# ---------------------------------------------------------------- input


def load_input_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    doc["_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return doc


def matrix_set_from_document(doc: dict) -> MatrixSet:
    if "dim" not in doc or "matrices" not in doc:
        raise InputError("input document needs 'dim' and 'matrices'")
    d = doc["dim"]
    if not isinstance(d, int) or d < 1:
        raise InputError("'dim' must be a positive integer")
    entries = doc["matrices"]
    if not isinstance(entries, list) or not entries:
        raise InputError("'matrices' must be a nonempty list")
    mats = []
    labels = []
    for k, item in enumerate(entries):
        if not isinstance(item, dict) or "re" not in item:
            raise InputError(f"matrix #{k + 1} must be an object with 're'")
        re_part = np.asarray(item["re"], dtype=np.float64)
        im_part = np.asarray(item.get("im", np.zeros((d, d))), dtype=np.float64)
        if re_part.shape != (d, d) or im_part.shape != (d, d):
            raise InputError(f"matrix #{k + 1} must be {d}x{d}")
        mats.append(re_part + 1j * im_part)
        labels.append(str(item.get("name", f"A{k + 1}")))
    try:
        return MatrixSet(tuple(mats), tuple(labels))
    except Exception as exc:
        raise InputError(str(exc)) from exc


def resolve_matrix_set(args) -> tuple:
    """(MatrixSet, input_sha256, chain_doc) from --input or --family/--alpha."""
    if getattr(args, "input", None):
        doc = load_input_document(args.input)
        ms = matrix_set_from_document(doc)
        return ms, doc["_sha256"], doc.get("chain")
    if getattr(args, "family", None):
        if args.family not in FAMILIES:
            raise InputError(
                f"unknown family {args.family!r}; available: {sorted(FAMILIES)}"
            )
        alpha = getattr(args, "alpha", None)
        if alpha is None:
            raise InputError("--family needs --alpha (or --grid for one-ratio)")
        ms = FAMILIES[args.family](alpha)
        token = f"family:{args.family}:{alpha!r}"
        return ms, hashlib.sha256(token.encode()).hexdigest(), None
    raise InputError("provide --input FILE or --family NAME")


def parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError("--grid must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError("--grid values must be numbers") from exc
    if not (0 < step < math.inf and -math.inf < start <= stop < math.inf):
        raise InputError("--grid needs finite values, step > 0 and stop >= start")
    steps = (stop - start) / step  # inf when the quotient overflows
    if not steps < _GRID_POINT_CAP:
        raise ResourceCapError(
            f"--grid {spec} has {steps + 1:.4g} points, over the cap of {_GRID_POINT_CAP}"
        )
    n = int(round(steps)) + 1
    return [round(start + k * step, 12) for k in range(n)]


# ---------------------------------------------------------------- report


def _jsonable(value):
    """Replace non-finite floats by None so reports stay strict JSON."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def emit(command: str, sha: str, config: dict, results: dict, started: float, args):
    report = {
        "command": command,
        "input_sha256": sha,
        "config": config,
        "results": results,
        "timings": {"total_s": time.perf_counter() - started},
    }
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def bounds_payload(b: jsr_bounds.JsrBounds) -> dict:
    return {
        "lower": b.lower,
        "upper": b.upper,
        "gap": b.gap,
        "lower_witness": list(b.lower_witness or ()),
        "upper_depth": b.upper_depth,
        "norm_used": b.norm_used,
        "converged": b.converged,
        "evaluations": b.evaluations,
        "stop_reason": b.stop_reason,
    }


# ---------------------------------------------------------------- commands


def cmd_estimate(args) -> None:
    started = time.perf_counter()
    ms, sha, _ = resolve_matrix_set(args)
    b = jsr_bounds.estimate(
        ms, target_gap=args.gap, budget=args.budget, max_depth=args.max_depth
    )
    config = {
        "gap": args.gap,
        "budget": args.budget,
        "max_depth": args.max_depth,
    }
    emit("estimate", sha, config, {"jsr": bounds_payload(b)}, started, args)


def cmd_bounds(args) -> None:
    started = time.perf_counter()
    ms, sha, _ = resolve_matrix_set(args)
    upper = jsr_bounds.upper_bound_at_depth(ms, args.depth, norm=args.norm)
    lower, witness = jsr_bounds.lower_bound_periodic(ms, args.max_period)
    config = {
        "depth": args.depth,
        "norm": args.norm,
        "max_period": args.max_period,
    }
    results = {
        "upper_at_depth": upper,
        "lower_periodic": lower,
        "lower_witness": list(witness or ()),
    }
    emit("bounds", sha, config, results, started, args)


def cmd_triangularise(args) -> None:
    started = time.perf_counter()
    ms, sha, _ = resolve_matrix_set(args)
    tri = reducibility.triangularise(ms, tol=args.tol, seed=args.seed)
    upper_est = jsr_bounds.estimate(tri.upper_blocks, target_gap=args.gap)
    lower_est = jsr_bounds.estimate(tri.lower_blocks, target_gap=args.gap)
    config = {"tol": args.tol, "seed": args.seed, "gap": args.gap}
    results = {
        "triangularisation": tri.to_json(),
        "upper_block_jsr": bounds_payload(upper_est),
        "lower_block_jsr": bounds_payload(lower_est),
    }
    emit("triangularise", sha, config, results, started, args)


def cmd_barabanov(args) -> None:
    started = time.perf_counter()
    ms, sha, _ = resolve_matrix_set(args)
    b = jsr_bounds.estimate(ms, target_gap=args.gap, max_depth=args.max_depth)
    cert = norms_mod.barabanov_iterate(
        ms,
        resolution=args.resolution,
        max_iters=args.max_iters,
        tol=args.tol,
        bounds=b,
        seed=args.seed,
    )
    config = {
        "resolution": args.resolution,
        "max_iters": args.max_iters,
        "tol": args.tol,
        "gap": args.gap,
        "max_depth": args.max_depth,
        "seed": args.seed,
    }
    results = {
        "rho_hat": cert.rho_hat,
        "residual": cert.residual,
        "iterations": cert.iterations,
        "norm": cert.norm.to_json(),
        "jsr": bounds_payload(b),
    }
    emit("barabanov", sha, config, results, started, args)


def cmd_mather(args) -> None:
    started = time.perf_counter()
    ms, sha, _ = resolve_matrix_set(args)
    est = jsr_bounds.estimate(ms, target_gap=args.gap, max_depth=24)
    found = mather_mod.certified_approx(
        ms, est, args.depth, args.tol, args.seed, args.gap
    )
    approx = found.approx
    diag = mather_mod.minimal_set_diagnostic(approx)
    recur = mather_mod.recurrent_ratio_check(approx)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(approx.graph.to_dot() + "\n")
    config = {
        "depth": args.depth,
        "tol": args.tol,
        "gap": args.gap,
        "seed": args.seed,
    }
    results = {
        "rho_hat": approx.rho_hat,
        "norm": approx.norm.to_json(),
        "triangularised": found.triangularised,
        "certified_by": found.certified_by,
        "retried": found.retried,
        "survivor_counts": {
            str(n): len(approx.survivors[n]) for n in approx.depths
        },
        "survivors_max_depth": [
            "".join(str(s) for s in w) for w in sorted(approx.survivors[args.depth])
        ],
        "min_ratio": approx.min_ratio,
        "diagnostic": {"kind": diag.kind, "count": diag.count},
        "recurrence": {
            "max_ratio": recur["max_ratio"],
            "pass": recur["pass"],
            "cycles_examined": recur["cycles_examined"],
        },
        "jsr": bounds_payload(found.bounds),
    }
    emit("mather", sha, config, results, started, args)


def cmd_stability(args) -> None:
    started = time.perf_counter()
    ms, sha, chain_doc = resolve_matrix_set(args)
    if chain_doc is not None:
        chain = stability.MarkovChainSpec.from_json(chain_doc)
    else:
        chain = stability.MarkovChainSpec.uniform(len(ms), seed=args.seed)
    report = stability.classify(
        ms,
        max_period=args.max_period,
        depth=args.depth,
        chain=chain,
        horizon=args.horizon,
        trials=args.trials,
    )
    emit("stability", sha, report.config, report.to_json(), started, args)


def cmd_one_ratio(args) -> None:
    started = time.perf_counter()
    if args.grid is not None:
        if not args.family:
            raise InputError("--grid needs --family")
        if args.family not in FAMILIES:
            raise InputError(
                f"unknown family {args.family!r}; available: {sorted(FAMILIES)}"
            )
        alphas = parse_grid(args.grid)
        curve = oneratio.ratio_curve(
            FAMILIES[args.family],
            alphas,
            args.symbol,
            max_period=args.max_period,
            slack=args.slack,
        )
        csv_text = oneratio.ratio_curve_csv(curve)
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        else:
            sys.stdout.write(csv_text)
        token = f"family:{args.family}:grid:{args.grid}"
        sha = hashlib.sha256(token.encode()).hexdigest()
        config = {
            "symbol": args.symbol,
            "max_period": args.max_period,
            "grid": args.grid,
            "slack": args.slack,
        }
        results = {
            "max_adjacent_jump": curve["max_adjacent_jump"],
            "points": len(curve["rows"]),
            "csv_path": args.csv,
        }
        if args.csv:
            emit("one-ratio", sha, config, results, started, args)
        return
    ms, sha, _ = resolve_matrix_set(args)
    est = oneratio.optimal_periodic_ratio(
        ms, args.symbol, max_period=args.max_period, slack=args.slack
    )
    config = {
        "symbol": args.symbol,
        "max_period": args.max_period,
        "slack": args.slack,
    }
    results = {
        "gamma": est.gamma,
        "spread": est.spread,
        "unique": est.unique_flag,
        "witnesses": [
            {"word": "".join(str(s) for s in w), "value": v}
            for (w, v) in est.witnesses
        ],
    }
    emit("one-ratio", sha, config, results, started, args)


def cmd_beta(args) -> None:
    started = time.perf_counter()
    ms, sha, _ = resolve_matrix_set(args)
    obs = subadditive.matrix_observable(ms, norm=args.norm)
    lower, upper = subadditive.beta_sandwich(
        obs, depth=args.depth, max_period=args.max_period
    )
    config = {
        "depth": args.depth,
        "max_period": args.max_period,
        "norm": args.norm,
    }
    results = {"lower": lower, "upper": upper}
    emit("beta", sha, config, results, started, args)


# ---------------------------------------------------------------- parser


def _add_common(p):
    p.add_argument("--input", help="input document (JSON)")
    p.add_argument("--family", help="built-in family name (e.g. hmst)")
    p.add_argument("--alpha", type=float, help="family parameter")
    p.add_argument("--output", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsrkit",
        description="Joint spectral radius bounds, extremal norms and "
        "growth-maximising sequence analysis for finite matrix sets.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("estimate", help="branch-and-bound jsr enclosure")
    _add_common(p)
    p.add_argument("--gap", type=float, default=1e-10, help="target gap (default 1e-10)")
    p.add_argument("--budget", type=int, default=10**6, help="product budget")
    p.add_argument("--max-depth", type=int, default=64, help="depth cap (default 64)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="depth-n upper and periodic lower bounds")
    _add_common(p)
    p.add_argument("--depth", type=int, default=8, help="upper bound depth")
    p.add_argument("--norm", choices=["op", "max"], default="op")
    p.add_argument("--max-period", type=int, default=8, help="lower bound period cap")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("triangularise", help="simultaneous block triangular form")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap", type=float, default=1e-8, help="block jsr gap")
    p.set_defaults(func=cmd_triangularise)

    p = sub.add_parser("barabanov", help="angular-grid Barabanov norm (real 2x2)")
    _add_common(p)
    p.add_argument("--resolution", type=int, default=2048)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--gap", type=float, default=1e-4, help="jsr interval gap")
    p.add_argument("--max-depth", type=int, default=24)
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(func=cmd_barabanov)

    p = sub.add_parser("mather", help="survivor-set outer approximation")
    _add_common(p)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--tol", type=float, default=5e-3)
    p.add_argument("--gap", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", help="write the survivor graph here (DOT)")
    p.set_defaults(func=cmd_mather)

    p = sub.add_parser("stability", help="absolute/periodic/Markov verdicts")
    _add_common(p)
    p.add_argument("--max-period", type=int, default=8)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("one-ratio", help="optimal symbol frequency")
    _add_common(p)
    p.add_argument("--symbol", type=int, default=1)
    p.add_argument("--max-period", type=int, default=8)
    p.add_argument("--slack", type=float, default=1e-6)
    p.add_argument("--grid", help="start:stop:step over the family parameter")
    p.add_argument("--csv", help="write the curve CSV here")
    p.set_defaults(func=cmd_one_ratio)

    p = sub.add_parser("beta", help="subadditive two-sided growth sandwich")
    _add_common(p)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--max-period", type=int, default=8)
    p.add_argument("--norm", choices=["op", "max"], default="op")
    p.set_defaults(func=cmd_beta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands: estimate, bounds, triangularise, barabanov, mather, stability,
one-ratio, beta.  Structured output is JSON (floats serialised with full
round-trip precision), curves are CSV, graphs are DOT.  Exit codes:
0 success, 2 malformed input, 3 resource cap exceeded, 4 numerical failure.

Each command is declared once, in ``COMMANDS``: its function, help text and
own flags.  A command takes the resolved matrix set and the flags, calls the
library and returns its results, or None when it printed a CSV itself; one
runner resolves the input, times the command and prints the report.  The
report's ``config`` echoes exactly the command's own flags, leaving out the
input selectors (--input, --family, --alpha, --output) and the files it
writes (--dot, --csv).  Every enclosure prints as ``JsrBounds.to_json``,
``stability``'s ``jsr`` block included; its ``results.config`` keeps the
library's settings, the estimate's gap and budget among them.  An input
``chain`` block brings its own seed, so ``stability --seed`` beside it is an
input error, and the echoed seed is always the one the Markov trials use.
``mather`` estimates the set, and the block it may triangularise to, at
the fixed depth cap ``mather.ESTIMATE_DEPTH`` (24), which is no flag.
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
from .errors import require_fields, require_int
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
    d, entries = require_fields(doc, "input document", "dim", "matrices")
    if require_int(d, "'dim'") < 1:
        raise InputError("'dim' must be a positive integer")
    if not isinstance(entries, list) or not entries:
        raise InputError("'matrices' must be a nonempty list")
    mats = []
    labels = []
    for k, item in enumerate(entries):
        if not isinstance(item, dict) or "re" not in item:
            raise InputError(f"matrix #{k + 1} must be an object with 're'")
        try:
            re_part = np.asarray(item["re"], dtype=np.float64)
            im_part = np.asarray(item.get("im", np.zeros_like(re_part)), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InputError(f"matrix #{k + 1} entries must be numbers: {exc}") from exc
        if re_part.shape != (d, d) or im_part.shape != (d, d):
            raise InputError(f"matrix #{k + 1} must be {d}x{d}")
        mats.append(re_part + 1j * im_part)
        labels.append(str(item.get("name", f"A{k + 1}")))
    try:
        return MatrixSet(tuple(mats), tuple(labels))
    except Exception as exc:
        raise InputError(str(exc)) from exc


def resolve_input(args) -> tuple:
    """(MatrixSet, input_sha256, chain document) from --input or --family/--alpha.

    ``one-ratio --grid`` reads its family from --family and has no single
    matrix set: it resolves to (None, the sha256 of family and grid, None).
    """
    grid = getattr(args, "grid", None)
    if args.input and grid is None:
        doc = load_input_document(args.input)
        return matrix_set_from_document(doc), doc["_sha256"], doc.get("chain")
    if not args.family:
        if grid is not None:
            raise InputError("--grid needs --family")
        raise InputError("provide --input FILE or --family NAME")
    if args.family not in FAMILIES:
        raise InputError(
            f"unknown family {args.family!r}; available: {sorted(FAMILIES)}"
        )
    if grid is not None:
        ms, token = None, f"family:{args.family}:grid:{grid}"
    elif args.alpha is None:
        raise InputError("--family needs --alpha (or --grid for one-ratio)")
    else:
        ms = FAMILIES[args.family](args.alpha)
        token = f"family:{args.family}:{args.alpha!r}"
    return ms, hashlib.sha256(token.encode()).hexdigest(), None


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


# ---------------------------------------------------------------- commands


def cmd_estimate(ms, args) -> dict:
    b = jsr_bounds.estimate(
        ms, target_gap=args.gap, budget=args.budget, max_depth=args.max_depth
    )
    return {"jsr": b.to_json()}


def cmd_bounds(ms, args) -> dict:
    upper = jsr_bounds.upper_bound_at_depth(ms, args.depth, norm=args.norm)
    lower, witness = jsr_bounds.lower_bound_periodic(ms, args.max_period)
    return {
        "upper_at_depth": upper,
        "lower_periodic": lower,
        "lower_witness": list(witness or ()),
    }


def cmd_triangularise(ms, args) -> dict:
    tri = reducibility.triangularise(ms, tol=args.tol, seed=args.seed)
    upper_est = jsr_bounds.estimate(tri.upper_blocks, target_gap=args.gap)
    lower_est = jsr_bounds.estimate(tri.lower_blocks, target_gap=args.gap)
    return {
        "triangularisation": tri.to_json(),
        "upper_block_jsr": upper_est.to_json(),
        "lower_block_jsr": lower_est.to_json(),
    }


def cmd_barabanov(ms, args) -> dict:
    b = jsr_bounds.estimate(ms, target_gap=args.gap, max_depth=args.max_depth)
    cert = norms_mod.barabanov_iterate(
        ms,
        resolution=args.resolution,
        max_iters=args.max_iters,
        tol=args.tol,
        bounds=b,
        seed=args.seed,
    )
    return {
        "rho_hat": cert.rho_hat,
        "residual": cert.residual,
        "iterations": cert.iterations,
        "norm": cert.norm.to_json(),
        "jsr": b.to_json(),
    }


def cmd_mather(ms, args) -> dict:
    est = jsr_bounds.estimate(
        ms, target_gap=args.gap, max_depth=mather_mod.ESTIMATE_DEPTH
    )
    found = mather_mod.certified_approx(
        ms, est, args.depth, args.tol, args.seed, args.gap
    )
    approx = found.approx
    diag = mather_mod.minimal_set_diagnostic(approx)
    recur = mather_mod.recurrent_ratio_check(approx)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(approx.graph.to_dot() + "\n")
    return {
        "rho_hat": approx.rho_hat,
        "norm": approx.norm.to_json(),
        "triangularised": found.triangularised,
        "certified_by": found.certified_by,
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
        "jsr": found.bounds.to_json(),
    }


def cmd_stability(ms, args) -> dict:
    if args.chain is None:
        chain = stability.MarkovChainSpec.uniform(len(ms), seed=args.seed or 0)
    elif args.seed is None:
        chain = stability.MarkovChainSpec.from_json(args.chain)
    else:
        raise InputError("--seed cannot be given with an input 'chain' block")
    args.seed = chain.seed  # the config echoes the seed the trials use
    report = stability.classify(
        ms,
        max_period=args.max_period,
        depth=args.depth,
        chain=chain,
        horizon=args.horizon,
        trials=args.trials,
    )
    return report.to_json()


def cmd_one_ratio(ms, args):
    if args.grid is None:
        est = oneratio.optimal_periodic_ratio(
            ms, args.symbol, max_period=args.max_period, slack=args.slack
        )
        return {
            "gamma": est.gamma,
            "spread": est.spread,
            "unique": est.unique_flag,
            "witnesses": [
                {"word": "".join(str(s) for s in w), "value": v}
                for (w, v) in est.witnesses
            ],
        }
    curve = oneratio.ratio_curve(
        FAMILIES[args.family],
        parse_grid(args.grid),
        args.symbol,
        max_period=args.max_period,
        slack=args.slack,
    )
    csv_text = oneratio.ratio_curve_csv(curve)
    if not args.csv:
        sys.stdout.write(csv_text)
        return None
    with open(args.csv, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    return {
        "max_adjacent_jump": curve["max_adjacent_jump"],
        "points": len(curve["rows"]),
        "csv_path": args.csv,
    }


def cmd_beta(ms, args) -> dict:
    obs = subadditive.matrix_observable(ms, norm=args.norm)
    lower, upper = subadditive.beta_sandwich(
        obs, depth=args.depth, max_period=args.max_period
    )
    return {"lower": lower, "upper": upper}


# ---------------------------------------------------------------- table

# The metavar of a flag that names a file: an input selector or a file the
# command writes.  The report's config does not echo such flags.
_FILE = "FILE"

_INPUT_FLAGS = (
    ("--input", dict(metavar=_FILE, help="input document (JSON)")),
    ("--family", dict(help="built-in family name (e.g. hmst)")),
    ("--alpha", dict(type=float, help="family parameter")),
    ("--output", dict(metavar=_FILE, help="write the report here, not to stdout")),
)

# name -> (command function, help text, the command's own flags)
COMMANDS = {
    "estimate": (cmd_estimate, "branch-and-bound jsr enclosure", (
        ("--gap", dict(type=float, default=1e-10, help="target gap (default 1e-10)")),
        ("--budget", dict(type=int, default=10**6, help="product budget")),
        ("--max-depth", dict(type=int, default=64, help="depth cap (default 64)")),
    )),
    "bounds": (cmd_bounds, "depth-n upper and periodic lower bounds", (
        ("--depth", dict(type=int, default=8, help="upper bound depth")),
        ("--norm", dict(choices=["op", "max"], default="op")),
        ("--max-period", dict(type=int, default=8, help="lower bound period cap")),
    )),
    "triangularise": (cmd_triangularise, "simultaneous block triangular form", (
        ("--tol", dict(type=float, default=1e-8)),
        ("--seed", dict(type=int, default=0)),
        ("--gap", dict(type=float, default=1e-8, help="block jsr gap")),
    )),
    "barabanov": (cmd_barabanov, "angular-grid Barabanov norm (real 2x2)", (
        ("--resolution", dict(type=int, default=2048)),
        ("--max-iters", dict(type=int, default=20000)),
        ("--tol", dict(type=float, default=1e-10)),
        ("--gap", dict(type=float, default=1e-4, help="jsr interval gap")),
        ("--max-depth", dict(type=int, default=24)),
        ("--seed", dict(type=int, default=20240801)),
    )),
    "mather": (cmd_mather, "survivor-set outer approximation", (
        ("--depth", dict(type=int, default=8)),
        ("--tol", dict(type=float, default=5e-3)),
        ("--gap", dict(type=float, default=1e-8)),
        ("--seed", dict(type=int, default=0)),
        ("--dot", dict(metavar=_FILE, help="write the survivor graph here (DOT)")),
    )),
    "stability": (cmd_stability, "absolute/periodic/Markov verdicts", (
        ("--max-period", dict(type=int, default=8)),
        ("--depth", dict(type=int, default=12)),
        ("--horizon", dict(type=int, default=200)),
        ("--trials", dict(type=int, default=64)),
        ("--seed", dict(type=int, help="uniform chain seed (default 0); an "
                        "input 'chain' block sets its own")),
    )),
    "one-ratio": (cmd_one_ratio, "optimal symbol frequency", (
        ("--symbol", dict(type=int, default=1)),
        ("--max-period", dict(type=int, default=8)),
        ("--slack", dict(type=float, default=1e-6)),
        ("--grid", dict(help="start:stop:step over the family parameter")),
        ("--csv", dict(metavar=_FILE, help="write the curve CSV here")),
    )),
    "beta": (cmd_beta, "subadditive two-sided growth sandwich", (
        ("--depth", dict(type=int, default=8)),
        ("--max-period", dict(type=int, default=8)),
        ("--norm", dict(choices=["op", "max"], default="op")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsrkit",
        description="Joint spectral radius bounds, extremal norms and "
        "growth-maximising sequence analysis for finite matrix sets.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in _INPUT_FLAGS:
            p.add_argument(flag, **options)
        own = [p.add_argument(flag, **options) for flag, options in flags]
        p.set_defaults(func=func, echo=[a.dest for a in own if a.metavar != _FILE])
    return parser


def run(args) -> None:
    """Resolve the input, run the command and print its report."""
    started = time.perf_counter()
    ms, sha, args.chain = resolve_input(args)
    results = args.func(ms, args)
    if results is None:
        return
    report = {
        "command": args.cmd,
        "input_sha256": sha,
        "config": {key: getattr(args, key) for key in args.echo},
        "results": results,
        "timings": {"total_s": time.perf_counter() - started},
    }
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run(args)
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

"""Runs one workload in a fresh single-threaded interpreter.

Set-up is the import of jsrkit, the generation of the seeded inputs and
one untimed warm-up case.  With ``--setup-only`` the worker stops there
and prints the monotonic time at which it was ready; otherwise it then
runs cases until their summed time reaches ``--seconds`` and writes its
record (per-case times and check results, spans, counts, environment)
to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time

GENERATED = 256  # cases generated during set-up; more are made on demand
WARMUP_SEED = 0  # the warm-up case is the same on every run


def run_case(run, case, tracer):
    """Time one case; run its checks afterwards, off the clock."""
    tracer.case = case["id"]
    error = None
    started = time.perf_counter()
    try:
        out = run(case, tracer)
    except Exception as exc:  # a case that raises is a failed case, not a crash
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    failed_checks = []
    for name, check in out.checks if out else ():
        try:
            ok = check()
        except Exception as exc:  # a check that cannot be evaluated fails
            ok, name = False, f"{name} ({type(exc).__name__}: {exc})"
        if not ok:
            failed_checks.append(name)
    return {
        "id": case["id"],
        "kind": case["kind"],
        "seconds": seconds,
        "error": error,
        "failed_checks": failed_checks,
        "failed": bool(error or failed_checks),
        "solved": out.solved if out else [],
        "gaps": out.gaps if out else [],
    }


def environment(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    from jsrkit import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "backend": _kernels.backend_name(),
        "cores": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout whose src/ is measured")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import jsrkit  # first, so a cold import of it and its dependencies is what gets timed

    if not os.path.abspath(jsrkit.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"jsrkit imported from {jsrkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from spans import NullTracer, Tracer

    make_case, run = workloads.WORKLOADS[args.workload]
    cases = [make_case(args.seed, i) for i in range(GENERATED)]
    run_case(run, make_case(WARMUP_SEED, 0), NullTracer())
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    record = {"ready": ready, "cases": [], "env": environment(args.seed)}
    null = NullTracer()
    tracer = Tracer() if args.trace else null
    traced_s = untraced_s = measured = 0.0
    i = 0
    while measured < args.seconds:
        while i >= len(cases):
            cases.append(make_case(args.seed, len(cases)))
        case = cases[i]
        if args.trace:
            # each case runs traced and untraced, alternating which goes
            # first, so the overhead is measured on the same cases
            if i % 2:
                res = run_case(run, case, tracer)
                plain = run_case(run, case, null)
            else:
                plain = run_case(run, case, null)
                res = run_case(run, case, tracer)
            traced_s += res["seconds"]
            untraced_s += plain["seconds"]
            measured += res["seconds"] + plain["seconds"]
        else:
            res = run_case(run, case, null)
            measured += res["seconds"]
        record["cases"].append(res)
        i += 1
    record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        record["spans"] = [s.to_json() for s in tracer.spans]
        record["counts"] = dict(tracer.counts)
        record["traced_s"] = traced_s
        record["untraced_s"] = untraced_s
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

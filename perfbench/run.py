"""jsrkit benchmark: one seeded workload per run, measured from outside.

    python3 perfbench/run.py --workload enclose --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the jsrkit under ./src is measured.  Each
workload runs in fresh single-threaded interpreters (one BLAS thread):
several that only set up, for the median ``setup_s``, and one that sets up
and then runs cases for ``--seconds`` of summed case time.  The report
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--workload all`` runs every workload in turn.

Exit codes: 0 on a completed run (even if checks failed: see
``correct``), 1 if a worker failed or ran out of time, 2 for bad usage or
a directory that holds no jsrkit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

import metrics
from spans import span_table

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "certify", "enclose", "periodic", "markov")
SETUP_RUNS = 3  # set-ups per run, the last one inside the measuring worker
IMPORT_PROBES = 3  # -X importtime set-ups per traced run
DEADLINE_S = 170.0  # a run of up to 56 s must end within 180 s
HELD_OUT_SEED = 7919  # never used while tuning; reserve it for gain claims
OUT_DIR = ".perfbench_out"

_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(cmd, env, deadline):
    """Run a worker to completion; kill it and fail if it outlives deadline."""
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker ran past the deadline: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return spawned, out, err


def import_times(stderr: str) -> dict:
    """Cumulative cold-import seconds from ``python -X importtime``."""
    cumulative = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
    return {
        "import.jsrkit_s": cumulative.get("jsrkit", 0.0),
        "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
        "import.networkx_s": cumulative.get("networkx", 0.0),
    }


def run_workload(root, workload, seed, seconds, trace, deadline) -> dict:
    env = child_env()
    worker = os.path.join(HERE, "worker.py")
    base = [sys.executable, worker, "--root", root, "--workload", workload, "--seed", str(seed)]
    setup, imports = [], []
    for _ in range(IMPORT_PROBES if trace else SETUP_RUNS - 1):
        flags = ["-X", "importtime"] if trace else []
        spawned, out, err = spawn([sys.executable, *flags, *base[1:], "--setup-only"], env, deadline)
        setup.append(json.loads(out.splitlines()[-1])["ready"] - spawned)
        if trace:
            imports.append(import_times(err))
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    cmd = base + ["--seconds", str(seconds), "--trace", str(int(trace)), "--out", path]
    spawned, _, _ = spawn(cmd, env, deadline)
    with open(path) as fh:
        record = json.load(fh)
    setup.append(record["ready"] - spawned)
    record["setup_samples"] = setup
    record["imports"] = {k: statistics.median(d[k] for d in imports) for k in metrics.IMPORTS} if trace else {}
    return record


def summarise(record, trace: bool) -> tuple:
    """(report lines, result object) for one workload's record."""
    cases = record["cases"]
    failed = [c for c in cases if c["failed"]]
    unexpected = [
        (c["id"], c["kind"], c["error"] or c["failed_checks"])
        for c in failed
        if c["error"] or any(name not in metrics.KNOWN_DEFECTS for name in c["failed_checks"])
    ]
    lines = ["environment: " + json.dumps(record["env"], sort_keys=True)]
    lines.append(f"held-out seed for gain claims: {HELD_OUT_SEED}")
    times = [c["seconds"] for c in cases]
    kinds = sorted({c["kind"] for c in cases})
    lines.append(f"cases: {len(cases)} ({', '.join(kinds)})")
    lines.append(f"failed cases: {len(failed)} of {len(cases)} "
                 f"({len(failed) - len(unexpected)} known defect only, {len(unexpected)} unexpected; "
                 "the result's failed counts the unexpected ones)")
    defects = {}
    for check, (metric, text) in metrics.KNOWN_DEFECTS.items():
        defects[metric] = sum(1 for c in cases if check in c["failed_checks"])
        lines.append(f"  known defect {check}: {defects[metric]} cases; {text}")
    for case_id, kind, what in unexpected[:20]:
        lines.append(f"  FAILED case {case_id} ({kind}): {what}")
    if trace:
        case_s = sum(times)
        values = metrics.per_layer(record["spans"], {**record["counts"], **defects}, record["imports"],
                                   record["traced_s"], record["untraced_s"], case_s)
        lines.append("per-layer (counts marked (c) are computed from arguments and results):")
        for name, unit in metrics.PER_LAYER.items():
            mark = " (c)" if name in metrics.COMPUTED_COUNTS else ""
            lines.append(f"  {name:48s} {values[name]:.6g} {unit}{mark}")
        split = ", ".join(f"{k.split('.')[1][:-5]} {100 * values[k]:.1f}%"
                          for k in (*metrics.SPLIT, "split.other_frac"))
        lines.append(f"stage split of case time: {split}")
        lines.append("self time by span (s): " + ", ".join(
            f"{name} {row['self_s']:.3f}" for name, row in
            sorted(span_table(record["spans"]).items(), key=lambda kv: -kv[1]["self_s"])))
        result_metrics = metrics.as_result(values, metrics.PER_LAYER)
    else:
        e2e = metrics.end_to_end(record["setup_samples"], cases, record["maxrss_kib"])
        _, pct, beyond = metrics.tail(times)
        notes = {
            "setup_s": f"median of {len(record['setup_samples'])} set-ups",
            "case_p50_ms": f"n={len(times)}",
            "case_tail_ms": f"p{pct:.1f}, {beyond} cases beyond" if beyond else "max: fewer than 11 cases",
        }
        lines.append("end-to-end:")
        for name, unit in {**metrics.END_TO_END, **metrics.REPORT_ONLY}.items():
            value = e2e[name]
            shown = "n/a (no such calls on this workload)" if value is None else f"{value:.6g} {unit}"
            note = f"  ({notes[name]})" if name in notes else ""
            lines.append(f"  {name:20s} {shown}{note}")
        result_metrics = metrics.as_result(e2e, metrics.END_TO_END)
    result = {
        "correct": not unexpected,
        "attempted": len(cases),
        "failed": len(unexpected),
        "metrics": result_metrics,
    }
    return lines, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="jsrkit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jsrkit", "__init__.py")):
        print(f"no jsrkit sources under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    allowed = max(DEADLINE_S, 3.0 * args.seconds)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        deadline = time.monotonic() + allowed
        try:
            record = run_workload(root, workload, args.seed, args.seconds, bool(args.trace), deadline)
        except WorkerError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        lines, result = summarise(record, bool(args.trace))
        print(f"== {workload} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

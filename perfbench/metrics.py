"""Metric names, units and the arithmetic that turns a worker's raw
record into them.  Pure Python: the parent process never imports numpy or
jsrkit, so its own start-up does not disturb what it measures."""

from __future__ import annotations

import statistics

from spans import span_table

# Gated end-to-end metrics: defined, and never 0, on every workload.
END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

# End-to-end metrics printed in the report only: they are 0 or undefined
# on some workloads, so they cannot carry a relative bound.
REPORT_ONLY = {
    "failed_frac": "ratio",
    "solved_frac": "ratio",
    "bound_gap_rel_mean": "ratio",
}

# A failing check named here is a recorded defect of the library.  The
# case counts in ``failed_frac`` and in the per-layer count named here, but
# not in the result's ``failed``, and the run stays correct.
KNOWN_DEFECTS = {
    "beta.lower_le_log_jsr": (
        "subadditive.beta_sandwich.lower_above_jsr",
        "beta_sandwich lower side is a truncated infimum, not a lower bound (ROADMAP C)",
    ),
}

# (span name, statistic) -> metric name; statistics come from span_table.
_SPAN_STATS = {
    "bounds.estimate": ("calls", "busy_s"),
    "bounds.lower_bound_periodic": ("busy_s",),
    "bounds.upper_bound_at_depth": ("busy_s",),
    "oneratio.ratio_curve": ("busy_s",),
    "subadditive.beta_sandwich": ("busy_s",),
    "norms.barabanov_iterate": ("calls", "failed", "busy_s", "failed_busy_s"),
    "norms.extremal_norm_2d": ("calls", "busy_s"),
    "certify": ("busy_s", "self_s"),
    "mather.build_mather_approx": ("busy_s", "failed"),
    "mather.recurrent_ratio_check": ("busy_s",),
    "stability.markov_lyapunov": ("calls", "busy_s"),
    "reducibility.triangularise": ("calls", "busy_s"),
}

# Counts computed from arguments and results; they repeat exactly.
COMPUTED_COUNTS = (
    "bounds.estimate.evaluations",
    "bounds.lower_bound_periodic.words",
    "bounds.upper_bound_at_depth.products",
    "oneratio.ratio_curve.words",
    "subadditive.beta_sandwich.observable_calls",
    "subadditive.beta_sandwich.lower_above_jsr",
    "norms.barabanov_iterate.iterations",
    "norms.barabanov_iterate.gauge_points",
    "norms.extremal_norm_2d.gauge_points",
    "certify.attempts",
    "certify.retries",
    "mather.build_mather_approx.survivors",
    "mather.recurrent_ratio_check.cycles_examined",
    "stability.markov_lyapunov.symbol_steps",
    "stability.markov_lyapunov.absorbed_trials",
)

# name -> (numerator count, denominator span statistic or count)
_RATES = {
    "bounds.estimate.evals_per_s": ("bounds.estimate.evaluations", "bounds.estimate.busy_s"),
    "bounds.estimate.converged_frac": ("bounds.estimate.converged", "bounds.estimate.calls"),
    "bounds.lower_bound_periodic.words_per_s": (
        "bounds.lower_bound_periodic.words",
        "bounds.lower_bound_periodic.busy_s",
    ),
    "certify.certified_frac": ("certify.certified", "certify.attempts"),
    "stability.markov_lyapunov.steps_per_s": (
        "stability.markov_lyapunov.symbol_steps",
        "stability.markov_lyapunov.busy_s",
    ),
}

IMPORTS = ("import.jsrkit_s", "import.scipy_optimize_s", "import.networkx_s")

# The share of case time spent in each stage; the sweep split of ROADMAP A.
SPLIT = {
    "split.estimate_frac": ("bounds.estimate",),
    "split.certify_frac": ("certify",),
    "split.markov_frac": ("stability.markov_lyapunov",),
}


def _unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def per_layer_names() -> list:
    names = list(IMPORTS)
    for span, stats in _SPAN_STATS.items():
        names += [f"{span}.{s}" for s in stats]
    names += list(COMPUTED_COUNTS) + list(_RATES) + list(SPLIT)
    names += ["split.other_frac", "trace.overhead_frac"]
    return names


PER_LAYER = {name: _unit(name) for name in per_layer_names()}


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, beyond)``: the (n-10)-th smallest of n
    samples sits at percentile 100*(n-10)/n with ten samples above it.
    With ten samples or fewer no percentile qualifies, and the maximum is
    returned with ``beyond`` = 0 so the report can say so.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(setup_samples, cases, peak_rss_kib) -> dict:
    """Every end-to-end metric, gated and report-only, as name -> value.

    ``cases`` are the worker's per-case records: seconds, whether a check
    failed or the case raised, and the case's solved flags and bound gaps.
    """
    times = [c["seconds"] for c in cases]
    failed = sum(1 for c in cases if c["failed"])
    solved = [s for c in cases for s in c["solved"]]
    gaps = [g for c in cases for g in c["gaps"]]
    tail_value, _, _ = tail(times)
    return {
        "setup_s": statistics.median(setup_samples),
        "cases_per_s": len(times) / sum(times),
        "case_p50_ms": 1e3 * statistics.median(times),
        "case_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "failed_frac": failed / len(cases),
        "solved_frac": sum(solved) / len(solved) if solved else None,
        "bound_gap_rel_mean": statistics.fmean(gaps) if gaps else None,
    }


def per_layer(spans, counts, imports, traced_s, untraced_s, case_s) -> dict:
    """Every per-layer metric as name -> value; absent layers read 0."""
    table = span_table(spans)
    values = {}
    for name in IMPORTS:
        values[name] = imports.get(name, 0.0)
    for span, stats in _SPAN_STATS.items():
        row = table.get(span, {})
        for s in stats:
            values[f"{span}.{s}"] = row.get(s, 0)
    for name in COMPUTED_COUNTS:
        values[name] = counts.get(name, 0)
    lookup = dict(counts)
    lookup.update(values)
    for name, (num, den) in _RATES.items():
        d = lookup.get(den, 0)
        values[name] = lookup.get(num, 0) / d if d else 0.0
    covered = 0.0
    for name, stages in SPLIT.items():
        busy = sum(table.get(s, {}).get("busy_s", 0.0) for s in stages)
        values[name] = busy / case_s if case_s else 0.0
        covered += values[name]
    values["split.other_frac"] = 1.0 - covered if case_s else 0.0
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return values


def as_result(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}

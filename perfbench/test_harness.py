"""Self-tests for the benchmark harness (no jsrkit needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import run  # noqa: E402
from spans import Tracer, span_table  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(name, start, end, parent=None, failed=False):
    return {"name": name, "start": start, "end": end, "parent": parent, "case": 0, "failed": failed}


def case(i, seconds, failed_checks=(), error=None):
    return {
        "id": i, "kind": "k", "seconds": seconds, "error": error,
        "failed_checks": list(failed_checks), "failed": bool(error or failed_checks),
        "solved": [], "gaps": [],
    }


def record(cases, trace=False):
    rec = {
        "cases": cases, "env": {}, "maxrss_kib": 2048, "setup_samples": [0.9, 0.7, 0.8],
    }
    if trace:
        rec.update(spans=[span("bounds.estimate", 0.0, 1.0)], counts={}, imports={},
                   traced_s=1.1, untraced_s=1.0)
    return rec


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        for n, value, pct in ((11, 1, 100 / 11), (20, 10, 50.0), (100, 90, 90.0)):
            got = metrics.tail(list(range(n, 0, -1)))
            self.assertEqual(got[0], value)
            self.assertAlmostEqual(got[1], pct)
            self.assertEqual(got[2], 10)
            self.assertEqual(sum(1 for v in range(1, n + 1) if v > got[0]), 10)

    def test_too_few_samples_fall_back_to_max(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))


class FailureCounting(unittest.TestCase):
    def test_failed_frac_counts_every_failure_the_result_only_unexpected_ones(self):
        known = next(iter(metrics.KNOWN_DEFECTS))
        cases = [case(0, 0.1), case(1, 0.1, [known]), case(2, 0.1, ["witness.eigvals"]),
                 case(3, 0.1, error="NumericalError: boom"), case(4, 0.1, [known, "witness.eigvals"])]
        _, result = run.summarise(record(cases), trace=False)
        self.assertEqual((result["attempted"], result["failed"]), (5, 3))
        self.assertFalse(result["correct"])
        self.assertAlmostEqual(metrics.end_to_end([1.0], cases, 1024)["failed_frac"], 0.8)

    def test_known_defect_alone_is_correct_and_counted_per_layer(self):
        known, (metric, _) = next(iter(metrics.KNOWN_DEFECTS.items()))
        cases = [case(0, 0.1), case(1, 0.1, [known]), case(2, 0.1, [known])]
        lines, result = run.summarise(record(cases), trace=False)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        self.assertTrue(any(f"known defect {known}: 2 cases" in line for line in lines))
        _, traced = run.summarise(record(cases, trace=True), trace=True)
        self.assertEqual(traced["metrics"][metric]["value"], 2)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_the_children(self):
        spans = [
            span("certify", 0.0, 10.0),
            span("norms.barabanov_iterate", 1.0, 3.0, parent=0, failed=True),
            span("norms.extremal_norm_2d", 4.0, 5.5, parent=0),
            span("norms.NormModel.induced", 5.0, 5.5, parent=2),
        ]
        table = span_table(spans)
        self.assertAlmostEqual(table["certify"]["self_s"], 10.0 - 2.0 - 1.5)
        self.assertAlmostEqual(table["certify"]["busy_s"], 10.0)
        self.assertAlmostEqual(table["norms.extremal_norm_2d"]["self_s"], 1.0)
        self.assertEqual(table["norms.barabanov_iterate"]["failed"], 1)
        self.assertAlmostEqual(table["norms.barabanov_iterate"]["failed_busy_s"], 2.0)

    def test_tracer_records_parent_and_failure(self):
        tr = Tracer()
        tr.case = 7
        with self.assertRaises(ValueError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise ValueError
        outer, inner = (s.to_json() for s in tr.spans)
        self.assertEqual((inner["parent"], inner["case"], inner["failed"]), (0, 7, True))
        self.assertTrue(outer["failed"])
        self.assertLessEqual(outer["start"], inner["start"])
        self.assertLessEqual(inner["end"], outer["end"])


class MetricsMatchBenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def assert_printed(self, result, declared):
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        cases = [case(i, 0.1 + 0.01 * i) for i in range(12)]
        lines, result = run.summarise(record(cases), trace=False)
        self.assert_printed(result, self.spec["end_to_end"])
        for name, unit in {**metrics.END_TO_END, **metrics.REPORT_ONLY}.items():
            self.assertTrue(any(line.split()[:1] == [name] for line in lines), name)

    def test_traced_run_prints_every_per_layer_metric(self):
        cases = [case(i, 0.1) for i in range(12)]
        _, result = run.summarise(record(cases, trace=True), trace=True)
        self.assert_printed(result, self.spec["per_layer"])
        self.assertAlmostEqual(result["metrics"]["trace.overhead_frac"]["value"], 0.1)

    def test_workloads_are_runnable(self):
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()

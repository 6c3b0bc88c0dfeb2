"""In-memory spans and counts, opened by the benchmark around public calls.

The library is not instrumented: every span wraps one call the benchmark
makes into ``jsrkit``, and every count is computed from that call's
arguments and result.  Spans are kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "failed")

    def __init__(self, name, start, parent, case):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index of the enclosing span, or None
        self.case = case
        self.failed = False  # the call ended in an exception

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "case": self.case,
            "failed": self.failed,
        }


class Tracer:
    """Records nested spans and named counts for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.case = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent, self.case)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n


class NullTracer:
    """Stands in for a Tracer in the untraced run; records nothing."""

    case = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: float = 1) -> None:
        pass


def span_table(spans) -> dict:
    """Per span name: calls, failed calls, busy and self seconds.

    Busy time is the summed duration of the name's spans.  Self time is
    each span's duration minus its children's durations; a child always
    closes before its parent, as the tracer keeps spans on a stack.
    """
    child_s = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            child_s[rec["parent"]] += rec["end"] - rec["start"]
    table = {}
    for i, rec in enumerate(spans):
        row = table.setdefault(
            rec["name"],
            {"calls": 0, "failed": 0, "busy_s": 0.0, "failed_busy_s": 0.0, "self_s": 0.0},
        )
        duration = rec["end"] - rec["start"]
        row["calls"] += 1
        row["busy_s"] += duration
        if rec["failed"]:
            row["failed"] += 1
            row["failed_busy_s"] += duration
        row["self_s"] += duration - child_s[i]
    return table

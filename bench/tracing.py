"""Spans recorded by the benchmark around its own calls into ccsym.

A span is (op, id, parent, name, start_ns, end_ns, probe, reps).  Spans of
one op share ``op``; ``parent`` links a span to the span open when it
started.  Probe spans time extra calls made after the op on its operands
and are never counted as children of the op.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns
from typing import NamedTuple


class Span(NamedTuple):
    op: int
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    probe: bool
    reps: int

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class NullTracer:
    """The untraced run: every span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name: str, probe: bool = False, reps: int = 1):
        return self._null


class Tracer:
    """Records every span in memory; ``op`` tags the spans that follow."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False, reps: int = 1):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[sid] = Span(self.op, sid, parent, name, start, end, probe, reps)

    def per_op_totals(self, ops) -> dict[int, dict[str, float]]:
        """Per op in ``ops``: milliseconds by span name, and self time by layer.

        A span's self time is its duration minus that of its children.  The
        op span's self time is reported as ``bench.self_ms``: the benchmark's
        own work inside an op, outside every call into ccsym.
        """
        spans = [s for s in self.spans if s is not None and s.op in ops]
        child_ms = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_ms[s.parent] += s.ms
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in spans:
            out = totals[s.op]
            self_ms = s.ms - child_ms[s.id]
            if s.name == "op":
                out["bench.self_ms"] += self_ms
            elif s.name.startswith("rings.dot."):
                out["rings.dot_us." + s.name.rsplit(".", 1)[1]] += s.ms * 1e3 / s.reps
            else:
                out[s.name + "_ms"] += s.ms
                if not s.probe and s.name != "oracle":
                    out[s.name.split(".", 1)[0] + ".self_ms"] += self_ms
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s._asdict()) + "\n")

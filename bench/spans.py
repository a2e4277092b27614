"""In-memory spans for the traced run, recorded from the benchmark's own code.

A span is (name, start, end, parent, op); spans opened while another is
open get it as parent.  Coefficient evaluations are far too many for one
span each, so ``CountingCoefficient`` counts them and adds their time to the
open span as aggregated child time.  Self time is a span's duration minus
its child spans and its aggregated child time.

Untraced runs never build a Tracer, so they carry none of these wrappers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from hadamard_bvp import Coefficient


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "attrs")

    def __init__(self, name, start, parent, op, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0  # aggregated child time (coefficient evaluations)
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.evals: dict[tuple[int, str], list] = {}  # (op, kind) -> [count, seconds]

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent, self.op, attrs)
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.stack.pop()

    def add_eval(self, kind: str, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]].child_s += seconds
        slot = self.evals.setdefault((self.op, kind), [0, 0.0])
        slot[0] += 1
        slot[1] += seconds

    def self_times(self) -> list[float]:
        child = [s.child_s for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "self_s": st,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s, st in zip(self.spans, selfs)
        ]


class CountingCoefficient(Coefficient):
    """Coefficient wrapper that counts and times every evaluation."""

    __slots__ = ("inner", "kind", "tracer")

    def __init__(self, inner: Coefficient, kind: str, tracer: Tracer):
        self.inner = inner
        self.kind = kind
        self.tracer = tracer

    def eval(self, t: float) -> float:
        start = time.perf_counter()
        try:
            return self.inner.eval(t)
        finally:
            self.tracer.add_eval(self.kind, time.perf_counter() - start)


def counted(fn, kind: str, tracer: Tracer):
    """Plain-callable version of CountingCoefficient."""

    def wrapped(t):
        start = time.perf_counter()
        try:
            return fn(t)
        finally:
            tracer.add_eval(kind, time.perf_counter() - start)

    return wrapped


@contextmanager
def patched(module, name: str, tracer: Tracer, span_name: str, attrs=lambda *a, **k: {}):
    """Replace module.name by a version that opens a span around each call."""
    original = getattr(module, name)

    def traced(*args, **kwargs):
        with tracer.span(span_name, **attrs(*args, **kwargs)):
            return original(*args, **kwargs)

    setattr(module, name, traced)
    try:
        yield
    finally:
        setattr(module, name, original)

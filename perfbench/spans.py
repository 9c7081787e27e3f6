"""In-memory spans around calls into the library, and the statistics drawn from them.

A span records name, start, end, parent span and the id of the operation it
belongs to (a prime, a certificate, a target). Spans are only recorded while
the tracer is enabled; disabled, `call` is a plain function call and `span`
returns a shared no-op context, so untraced rounds pay almost nothing.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

TAIL_BEYOND = 10  # a tail percentile needs this many samples above it

_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, op):
        self.tracer = tracer
        stack = tracer.stack
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = tracer.spans[parent][4]
        self.record = [name, 0.0, 0.0, parent, op]

    def __enter__(self):
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, op=None):
        return _Span(self, name, op) if self.enabled else _NO_SPAN

    def call(self, name: str, fn, *args, op=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with _Span(self, name, op):
            return fn(*args, **kwargs)

    def dump(self) -> list[dict]:
        """Every span with its duration and self time (duration minus children)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op,
             "self_s": end - start - child_s[i]}
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples above it, read off the sorted samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def fastest(samples_per_round) -> list[float]:
    """Position by position, the fastest of the rounds' sample lists: every
    round repeats the same operations in the same order."""
    return [min(column) for column in zip(*samples_per_round)]


def layer_durations(spans: list[list], tops: set) -> dict[str, dict[int, list[float]]]:
    """Span durations in call order, by span name and then by top-level span,
    for the top-level spans (rounds, the set-up) listed in `tops`."""
    top = [-1] * len(spans)
    out: dict[str, dict[int, list[float]]] = {}
    for i, (name, start, end, parent, _op) in enumerate(spans):
        top[i] = i if parent < 0 else top[parent]
        if parent >= 0 and top[i] in tops:
            out.setdefault(name, {}).setdefault(top[i], []).append(end - start)
    return out

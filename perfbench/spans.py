"""In-memory spans and counts, recorded around calls into energyde's layers.

Nothing under ``src/`` is changed: ``Tracer.wrap`` replaces a module or class
attribute with a timing wrapper for the life of the process, so the program
calls the wrapper where it would call the original.  A span records its
name, start, end, parent span, and the trace (one request, query or pipeline
run) it belongs to.  Spans stay in memory and are written out once, at the
end of the run.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import itertools
import json
import statistics
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext


class _Trace:
    """One request, query or pipeline run: its id, kind and counters."""

    __slots__ = ("id", "kind", "counts")

    def __init__(self, trace_id, kind):
        self.id = trace_id
        self.kind = kind
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self, process: str):
        self.process = process
        self.spans: list[tuple] = []      # (trace id, kind, span id, parent, name, start, end)
        self.traces: list[_Trace] = []
        self._ids = itertools.count(1)
        self._span = contextvars.ContextVar("perfbench_span", default=None)
        self._trace = contextvars.ContextVar("perfbench_trace", default=None)

    # --- recording -----------------------------------------------------------

    @contextmanager
    def trace(self, kind: str):
        """A root: every span and count made inside it belongs to this trace."""
        current = _Trace(next(self._ids), kind)
        self.traces.append(current)
        token = self._trace.set(current)
        try:
            with self.span(kind):
                yield current
        finally:
            self._trace.reset(token)

    @contextmanager
    def span(self, name: str):
        parent = self._span.get()
        span_id = next(self._ids)
        token = self._span.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._span.reset(token)
            current = self._trace.get()
            self.spans.append((current.id if current else 0,
                               current.kind if current else "", span_id, parent,
                               name, start, end))

    @contextmanager
    def within(self, trace):
        """Re-enter ``trace`` for a later step of the same request."""
        token = self._trace.set(trace)
        try:
            yield
        finally:
            self._trace.reset(token)

    def count(self, name: str, n: int = 1) -> None:
        current = self._trace.get()
        if current is not None:
            current.counts[name] += n  # a trace is only touched by its own thread

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``; ``after(result,
        args)`` may add counts once the span has closed."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, wrapper)

    def context_executor(self):
        """A ThreadPoolExecutor whose tasks run in the submitter's context, so
        spans made in pool threads keep their trace and parent."""

        class ContextExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(contextvars.copy_context().run, fn,
                                      *args, **kwargs)

        return ContextExecutor

    # --- output --------------------------------------------------------------

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for t in self.traces:
                fh.write(json.dumps({"process": self.process, "trace": t.id,
                                     "kind": t.kind, "counts": t.counts}) + "\n")
            for trace_id, kind, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"process": self.process, "trace": trace_id,
                                     "kind": kind, "span": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

    def summary(self) -> "TraceSummary":
        return TraceSummary.build(self.spans, self.traces)


class NullTracer:
    """Tracing off: a root costs one ``nullcontext``."""

    def trace(self, kind: str):
        return nullcontext()


class TraceSummary:
    """Per trace kind: for every trace, the total time in each span name and
    its counts.  This is what crosses the process boundary."""

    def __init__(self, by_kind: dict):
        self.by_kind = by_kind  # kind -> list of {"ms": {name: ms}, "counts": {...}}

    @classmethod
    def build(cls, spans, traces) -> "TraceSummary":
        per_trace = {t.id: {"ms": defaultdict(float), "max": defaultdict(float),
                            "counts": dict(t.counts)} for t in traces}
        for trace_id, _kind, _sid, _parent, name, start, end in spans:
            entry = per_trace.get(trace_id)
            if entry is not None:
                ms = (end - start) * 1000
                entry["ms"][name] += ms
                entry["max"][name] = max(entry["max"][name], ms)
        by_kind = defaultdict(list)
        for t in traces:
            by_kind[t.kind].append(per_trace[t.id])
        return cls(dict(by_kind))

    def to_json(self) -> dict:
        return self.by_kind

    @classmethod
    def from_json(cls, doc: dict) -> "TraceSummary":
        return cls(doc)

    def merge(self, other: "TraceSummary") -> "TraceSummary":
        merged = defaultdict(list)
        for part in (self.by_kind, other.by_kind):
            for kind, items in part.items():
                merged[kind].extend(items)
        return TraceSummary(dict(merged))

    def ms(self, kind: str, name: str) -> float:
        """Median over the kind's traces of the time spent in span ``name``."""
        return _median([t["ms"].get(name, 0.0) for t in self.by_kind.get(kind, ())])

    def max_ms(self, kind: str, name: str) -> float:
        """Median over the kind's traces of the longest single ``name`` span."""
        return _median([t["max"].get(name, 0.0) for t in self.by_kind.get(kind, ())])

    def counted(self, kind: str, name: str) -> float:
        """Median over the kind's traces of count ``name``."""
        return _median([t["counts"].get(name, 0) for t in self.by_kind.get(kind, ())])

    def total(self, kind: str, name: str) -> float:
        return sum(t["counts"].get(name, 0) for t in self.by_kind.get(kind, ()))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0

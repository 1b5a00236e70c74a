"""Span recorder for the traced benchmark run.

Spans are opened by the benchmark around its calls into each rigidpde
module; nothing inside the package is instrumented.  Every span records
its name, start and end (``time.perf_counter``), the index of its parent
span and the id of the op it belongs to, plus optional computed counts
(grid nodes, file or array bytes) and a tracemalloc peak; tracemalloc
runs only inside the spans that take a peak.  Spans live in
memory and are written out once, after the run.

A layer's self time is its span's duration minus the durations of its
direct children; spans are strictly nested because the benchmark drives
the library from a single thread.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from rigidpde.fields import CoefficientField


class Tracer:
    """In-memory span recorder.  ``op_id`` tags every span opened while
    an op is running; spans outside ops carry ``None``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = None

    @contextmanager
    def span(self, name, nodes=0, peak=False):
        """Record one span.  ``peak=True`` runs tracemalloc for the span's
        duration only and records the peak of the memory allocated inside
        it; it is ignored inside another peak-measuring span."""
        rec = {"name": name, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": 0.0, "end": 0.0, "nodes": int(nodes), "bytes": 0,
               "peak_bytes": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        peak = peak and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if peak:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one op; its direct children are the top-level
        layer spans whose coverage of the op is reported."""
        self.op_id = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = None

    def wrap(self, name, fn, nodes=None, size=None, peak=False):
        """``fn`` with a span around every call.  ``nodes(*args, **kw)``
        gives the grid nodes of the call; ``size(args, kw, result)`` gives
        the bytes it read or wrote, evaluated after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = nodes(*args, **kwargs) if nodes is not None else 0
            with self.span(name, nodes=n, peak=peak) as rec:
                result = fn(*args, **kwargs)
            if size is not None:
                rec["bytes"] = int(size(args, kwargs, result))
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class TracedField(CoefficientField):
    """Thin timing proxy of a coefficient field.

    Behaves exactly like the wrapped field for ``analysis`` and
    ``transport``; each call of ``values``, ``sample`` and ``spectral``
    becomes a ``fields.*`` span.  For fields whose partials come from
    finite differences the base-class ``sample`` runs on the proxy, so
    the five stencil evaluations show up as ``fields.values`` children.
    """

    def __init__(self, inner: CoefficientField, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.region = inner.region
        self.closed_form_partials = inner.closed_form_partials
        if hasattr(inner, "delta"):
            self.delta = inner.delta

    def values(self, x, y):
        with self.tracer.span("fields.values", nodes=np.broadcast(x, y).size):
            return self.inner.values(x, y)

    def sample(self, x, y, h=None):
        with self.tracer.span("fields.sample", nodes=np.broadcast(x, y).size):
            if type(self.inner).sample is CoefficientField.sample:
                return CoefficientField.sample(self, x, y, h)
            return self.inner.sample(x, y, h)

    def spectral(self, x, y):
        with self.tracer.span("fields.spectral", nodes=np.broadcast(x, y).size):
            return self.inner.spectral(x, y)

    def check_domain(self, x, y, pad: float = 0.0):
        return self.inner.check_domain(x, y, pad=pad)


def aggregate(spans):
    """Per span name, over the spans that belong to ops: the number of
    ops containing it, and totals of calls, duration, self time, nodes and
    bytes, plus the largest tracemalloc peak."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    agg: dict[str, dict] = {}
    for k, s in enumerate(spans):
        if s["op"] is None:
            continue
        a = agg.setdefault(s["name"], {"ops": set(), "calls": 0, "dur": 0.0,
                                       "self": 0.0, "nodes": 0, "bytes": 0,
                                       "peak": 0})
        dur = s["end"] - s["start"]
        a["ops"].add(s["op"])
        a["calls"] += 1
        a["dur"] += dur
        a["self"] += dur - child_time[k]
        a["nodes"] += s["nodes"]
        a["bytes"] += s["bytes"]
        if s["peak_bytes"] is not None:
            a["peak"] = max(a["peak"], s["peak_bytes"])
    return agg


def op_coverage(spans):
    """Share of each op's wall time covered by its top-level layer
    spans, keyed by op id."""
    roots = {k: s for k, s in enumerate(spans) if s["name"] == "op"}
    covered = {k: 0.0 for k in roots}
    for s in spans:
        if s["parent"] in covered:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["op"]: covered[k] / (s["end"] - s["start"])
            for k, s in roots.items()}

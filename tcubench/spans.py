"""In-memory spans for the traced benchmark run, and self-time arithmetic.

A span is one timed call into a layer: ``(span_id, parent_id,
request_id, name, thread_id, start_ns, end_ns)``.  Spans live in a list
while the run lasts and are written out when it ends.  Every span of one
benchmark operation carries that operation's request id, including the
spans that start on server threads or shard threads: the tracer hands
the caller's context to those threads explicitly (see
:meth:`Tracer.bind` and :mod:`tcubench.probes`).

Self time is a span's duration minus the time its children *on the same
thread* cover.  A child on another thread (a shard task, the server's
execution of a submitted query) runs while its parent waits, so the
parent keeps that wait in its self time.  The spans of one request on
one thread therefore form properly nested segments, and within each
segment the self times sum exactly to the segment's top span — the
check :func:`self_time_violations` makes.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    request_id: int | None
    name: str
    thread_id: int
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans from any thread; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    # -- context -------------------------------------------------------- #

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> tuple[int | None, int | None]:
        """``(span_id, request_id)`` of the innermost open span on this
        thread, or ``(None, None)`` outside any span."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextmanager
    def span(self, name: str, parent: tuple[int | None, int | None] | None = None,
             new_request: bool = False):
        """Time the block as one span.

        ``parent`` overrides the thread's own context (a task adopted by
        another thread); ``new_request`` starts a new request id.
        """
        parent_id, request_id = parent if parent is not None else self.context()
        if new_request:
            request_id = next(self._requests)
        span_id = next(self._ids)
        stack = self._stack()
        stack.append((span_id, request_id))
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent_id, request_id, name,
                                   threading.get_ident(), start, end))

    def bind(self, fn, name: str):
        """``fn`` wrapped to run as a ``name`` span under the caller's
        current context, on whichever thread calls it, so a task handed
        to a pool thread joins the caller's request."""
        captured = self.context()
        owner = threading.get_ident()

        def call(*args, **kwargs):
            adopted = captured if threading.get_ident() != owner else None
            with self.span(name, parent=adopted):
                return fn(*args, **kwargs)

        return call

    # -- output --------------------------------------------------------- #

    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time (ns) of every span: its duration minus the union of its
    same-thread children's intervals, clipped to the span."""
    by_id = {span.span_id: span for span in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent_id)
        if parent is not None and parent.thread_id == span.thread_id:
            children[parent.span_id].append(span)
    out: dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda c: c.start_ns):
            lo = max(child.start_ns, cursor, span.start_ns)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration_ns - covered
    return out


def segment_roots(spans: list[Span]) -> list[Span]:
    """Spans whose parent is absent or ran on another thread."""
    by_id = {span.span_id: span for span in spans}
    roots = []
    for span in spans:
        parent = by_id.get(span.parent_id)
        if parent is None or parent.thread_id != span.thread_id:
            roots.append(span)
    return roots


def self_time_violations(spans: list[Span]) -> list[int]:
    """Request ids whose per-segment self times fail to sum exactly to
    the segment's top span.

    A violation means a span outlived its parent, overlapped a sibling
    on its own thread, lost its parent link, or ran outside any request.
    """
    selfs = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    roots = {span.span_id for span in segment_roots(spans)}
    bad = {span.request_id for span in spans
           if span.request_id is None
           or (span.parent_id is not None and span.parent_id not in by_id)}

    def segment_of(span: Span) -> int:
        while span.span_id not in roots:
            span = by_id[span.parent_id]
        return span.span_id

    sums: dict[int, int] = defaultdict(int)
    for span in spans:
        sums[segment_of(span)] += selfs[span.span_id]
    for root_id, total in sums.items():
        root = by_id[root_id]
        if total != root.duration_ns:
            bad.add(root.request_id)
    return sorted(bad, key=lambda r: (r is None, r))


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_ms`` and ``self_ms`` totals."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["busy_ms"] += span.duration_ns / 1e6
        entry["self_ms"] += selfs[span.span_id] / 1e6
    return dict(totals)

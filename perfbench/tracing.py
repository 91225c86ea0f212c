"""Spans around public entry points, recorded in memory.

A span is ``(id, name, start, end, parent, rid)``: ``parent`` is the id
of the enclosing span on the same thread (0 for none) and ``rid`` the
benchmark request id the span served (0 when unknown).  Self time is a
span's duration minus the part of it its child spans cover.  Standard
library only; the server host installs the wrappers.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, int, int]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of the
    intervals its children cover (clipped to the parent)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[span_id] = (end - start) - covered
    return result


class Tracer:
    """Wraps callables so each call records one span."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.events: List[Tuple[str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[List]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, *,
             rid_of: Optional[Callable[..., int]] = None,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """``rid_of(*args)`` names the request a call serves;
        ``after(result, *args)`` sees each result (for counters)."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            rid = rid_of(*args) if rid_of is not None else 0
            if not rid and parent is not None:
                rid = parent[1]
            frame = [next(tracer._ids), rid]
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append((frame[0], name, start, end,
                                     parent[0] if parent else 0, frame[1]))
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def event(self, name: str, at: float, value: float) -> None:
        """A measured quantity that is not a span (a wait, a size)."""
        self.events.append((name, at, value))

    def summary(self, t0: float, t1: float) -> Dict[str, Dict[str, float]]:
        """Per span name, for spans that started in ``[t0, t1)``: call
        count, total and self seconds, and the median and largest
        duration.  Events are summarised the same way."""
        spans = [s for s in self.spans if t0 <= s[2] < t1]
        selfs = self_times(spans)
        out: Dict[str, Dict] = {}
        for span in spans:
            entry = out.setdefault(span[1], {"calls": 0, "total": 0.0,
                                             "self": 0.0, "values": []})
            entry["calls"] += 1
            entry["total"] += span[3] - span[2]
            entry["self"] += selfs[span[0]]
            entry["values"].append(span[3] - span[2])
        for name, at, value in self.events:
            if t0 <= at < t1:
                entry = out.setdefault(name, {"calls": 0, "total": 0.0,
                                              "self": 0.0, "values": []})
                entry["calls"] += 1
                entry["total"] += value
                entry["self"] += value
                entry["values"].append(value)
        for entry in out.values():
            values = entry.pop("values")
            entry["p50"] = percentile(values, 0.5)
            entry["max"] = max(values)
        return out

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; return how many."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, rid in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent, "rid": rid}) + "\n")
        return len(self.spans)


def percentile(values: Iterable[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]

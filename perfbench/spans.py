"""In-memory spans around the benchmark's calls into each layer.

The traced pass wraps every call into the program in a span (name,
start, end, parent, op id).  Spans stay in memory and are written out
when the run ends.  A layer's *self time* is its spans' durations minus
the part of each span its child spans cover; :func:`blame` lists layers
by self time, worst first, like ``cloud-init analyze blame``.
"""

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext


class NullRecorder:
    """The untraced pass: spans cost one no-op context manager."""

    enabled = False
    spans = ()

    def span(self, _name, op=None):
        return nullcontext()

    def attach(self, _parent_id, _name, _seconds):
        pass


class SpanRecorder:
    enabled = True

    def __init__(self):
        self.spans = []
        self._by_id = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name, op=None):
        """Time the block as a child of this thread's open span; yield its id."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent, parent_op = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        op = parent_op if op is None else op
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._add({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "op": op,
            })

    def _add(self, span):
        self.spans.append(span)
        self._by_id[span["id"]] = span

    def attach(self, parent_id, name, seconds):
        """Add a child measured elsewhere (the daemon), ending with its parent."""
        parent = self._by_id[parent_id]
        self._add({
            "id": next(self._ids), "name": name,
            "start": max(parent["start"], parent["end"] - seconds),
            "end": parent["end"], "parent": parent_id, "op": parent["op"],
        })


def covered(intervals, start, end):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans):
    """``{span id: self time}``: duration minus the children's cover."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def blame(spans):
    """``[(layer, self seconds, span count)]``, worst self time first."""
    own = self_times(spans)
    rows = {}
    for span in spans:
        total, count = rows.get(span["name"], (0.0, 0))
        rows[span["name"]] = (total + own[span["id"]], count + 1)
    return sorted(
        ((name, total, count) for name, (total, count) in rows.items()),
        key=lambda row: (-row[1], row[0]),
    )


def format_blame(rows, title):
    lines = ["-- {} --".format(title)]
    for name, seconds, count in rows:
        lines.append("  {:12.6f}s  {}  ({} spans)".format(seconds, name, count))
    return "\n".join(lines)

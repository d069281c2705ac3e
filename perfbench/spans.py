"""In-memory span recorder for the traced benchmark run.

Spans are recorded only around calls the benchmark itself makes into a
layer's public functions; nothing inside ``lftlab`` is instrumented.
Each span keeps its name, start, end, parent span and op id. Spans stay
in memory until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = {"id": sid, "name": name, "parent": parent, "op": self.op_id, "start": 0.0, "end": 0.0}
        self.spans.append(span)
        self._stack.append(sid)
        span["start"] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def totals(self, first: int = 0) -> dict[str, float]:
        """Summed duration per span name over spans recorded since ``first``."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[first:]:
            out[span["name"]] += span["end"] - span["start"]
        return out

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per name: span count, total seconds, self seconds.

        Self time is a span's duration minus the part its child spans
        cover; children never overlap because the load is one caller.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        out: dict[str, list] = {}
        for span in self.spans:
            dur = span["end"] - span["start"]
            row = out.setdefault(span["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[span["id"]]
        return {name: tuple(row) for name, row in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def call(tr, name: str, fn, *args, **kwargs):
    """Span ``fn`` when tracing, call it bare otherwise."""
    if tr is None:
        return fn(*args, **kwargs)
    return tr.call(name, fn, *args, **kwargs)

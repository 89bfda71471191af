"""In-memory spans around the benchmark's own calls into banditlab.

A span is (name, start, end, parent index).  Spans nest through a stack, so a
span opened inside another records it as its parent; the spans of one round
hang off that round's root span.  With tracing off, `call` is a plain call.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as a span named `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent)
            self._open.pop()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (count, total seconds)."""
        out: dict[str, tuple[int, float]] = {}
        for span in self.spans:
            if span is not None:
                name, start, end, _ = span
                count, seconds = out.get(name, (0, 0.0))
                out[name] = (count + 1, seconds + end - start)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent = span
                    fh.write(json.dumps([idx, name, start, end, parent]) + "\n")

"""Span recording from outside the program.

The benchmark traces the stack without touching ``src/``: it wraps the
layers' public methods for the duration of a traced repetition and
records ``{name, start, end, parent, rep}`` in memory.  A layer's self
time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class SpanLog:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.rep = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "rep": self.rep,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapping(self, targets):
        """Wrap ``(owner, attribute, span name)`` callables in spans
        while the block runs; the originals are restored on exit."""
        originals = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrapped(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _wrapped(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus children)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_s):
            own = s["end"] - s["start"] - covered
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

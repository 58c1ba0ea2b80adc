"""Spans around calls into the program, recorded from outside it.

A span is opened by replacing a function with a timing wrapper in the
namespace that calls it (for example ``pipeline.extract_context`` or
``kernels.dice_batch``), so nothing inside the program changes. Spans nest
per thread: each span adds its duration to its parent's child time, and a
span's self time is its duration minus that child time. Spans stay in
memory until the caller aggregates and clears them.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr with a traced wrapper until restore().

        on_return(args, kwargs, result) runs after the span closes, so its
        cost falls into the parent span's self time; keep it to counting.
        Calls to it are serialised, so it may update shared counters.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0.0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_time += span.duration
                tracer.spans.append(span)
            if on_return is not None:
                with tracer._lock:
                    on_return(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and summed self time."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total": 0.0, "self": 0.0})
        for span in self.spans:
            row = out[span.name]
            row["count"] += 1
            row["total"] += span.duration
            row["self"] += span.self_time
        return out

    def covered(self, name: str) -> float:
        """Wall time during which at least one span of this name was open."""
        covered, reach = 0.0, float("-inf")
        for start, end in sorted((s.start, s.end) for s in self.spans if s.name == name):
            covered += max(0.0, end - max(start, reach))
            reach = max(reach, end)
        return covered

    def clear(self) -> None:
        self.spans.clear()

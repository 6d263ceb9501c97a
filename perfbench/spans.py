"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its name, start, end, the span
that caused it, and the id of the optimizer run it belongs to. Methods of
the program are wrapped from outside by :meth:`Tracer.wrap`, so the program
itself carries no tracing code. Every span feeds the per-name totals; only
the first ``SPAN_CAP`` spans are kept whole, which bounds memory on long runs.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

SPAN_CAP = 100_000


class Tracer:
    """Span stack, per-name self-time totals and event counters."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.run_id: int | None = None
        # name -> [calls, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def _open(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else None
        self._next_id += 1
        # [name, start, time covered by children, id, parent]
        self._stack.append([name, perf_counter(), 0.0, self._next_id, parent])

    def _close(self) -> None:
        end = perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, self.run_id))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close()

        self._patch(owner, attr, original, traced)

    def count_true(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that counts truthy returns."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if result:
                self.counts[name] += 1
            return result

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def self_seconds(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def write(self, path: Path) -> None:
        """Write the kept spans as CSV, times in seconds from tracer start."""
        lines = ["id,name,start,end,parent,run"]
        for span_id, name, start, end, parent, run_id in self.spans:
            lines.append(
                f"{span_id},{name},{start - self.origin:.9f},{end - self.origin:.9f},"
                f"{'' if parent is None else parent},{'' if run_id is None else run_id}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

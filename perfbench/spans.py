"""In-memory spans recorded by the benchmark around public calls.

The traced run wraps each call into a layer of ``repro`` in a span
(name, start, end, parent) from the benchmark's own code; nothing inside
``src/`` is instrumented.  Spans stay in memory and are written out once
the run ends.  A layer's *self time* is its spans' duration minus the
part covered by child spans.

The untimed path uses :data:`NO_SPANS`, whose ``span`` returns one shared
no-op context, so the timed run pays a single call per wrapped site.
"""

from __future__ import annotations

import time
from collections import defaultdict

__all__ = ["SpanRecorder", "NO_SPANS"]


class _Span:
    __slots__ = ("rec", "idx")

    def __init__(self, rec: "SpanRecorder", name: str) -> None:
        self.rec = rec
        self.idx = rec._open(name)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> bool:
        self.rec._close(self.idx)
        return False


class SpanRecorder:
    """Records nested spans as ``[name, start_ns, end_ns, parent]`` rows."""

    enabled = True

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, time.perf_counter_ns(), 0, parent])
        idx = len(self.rows) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.rows[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        child_ns = [0] * len(self.rows)
        for name, start, end, parent in self.rows:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _), kids in zip(self.rows, child_ns):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - kids) / 1e9
        return dict(out)


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NO_SPAN = _NoSpan()


class _NoSpans:
    enabled = False

    def span(self, name: str) -> _NoSpan:
        return _NO_SPAN


NO_SPANS = _NoSpans()

"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code around its calls into the
library (``compile_workload``, ``Server.submit``, ``ModelRequest.result``,
``Server.report``/``health``, ``ModelPlan.run``, ``simulate_gemm``).  Each
span has a name, a start, an end and a parent; the spans of one request
share its request id.  Nothing is written until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Tracer:
    """Append-only span store; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter()
        #: ``(name, start, end, parent, request)`` per span; the list index is
        #: the span id.
        self.spans: List[Tuple[str, float, float, Optional[int], Optional[int]]] = []
        self._open: List[int] = []
        self._lock = threading.Lock()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
    ) -> Optional[int]:
        """Record a finished span from ``time.perf_counter`` stamps."""
        if not self.enabled:
            return None
        with self._lock:
            self.spans.append((name, start, end, parent, request))
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[int]]:
        """Time a block as a child of the innermost open :meth:`span`.

        Yields the span id, so spans added with :meth:`add` inside the block
        can name it as their parent.  Only the generator thread opens spans.
        """
        if not self.enabled:
            yield None
            return
        parent = self._open[-1] if self._open else None
        span_id = self.add(name, time.perf_counter(), 0.0, parent)
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            start = self.spans[span_id][1]
            self.spans[span_id] = (name, start, time.perf_counter(), parent, None)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name.

        A span's self time is its duration minus the part of it covered by
        its children (the union of their intervals, clipped to the span), so
        overlapping children are not subtracted twice.
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: Dict[str, float] = {}
        for span_id, (name, start, end, _, _) in enumerate(self.spans):
            covered = _union_length(children.get(span_id, ()), start, end)
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def write(self, path: Path, summary: Dict[str, object]) -> None:
        """Write every span as one JSON line, then a self-time summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": span_id,
                    "name": name,
                    "start_s": start - self.origin,
                    "end_s": end - self.origin,
                    "parent": parent,
                    "request": request,
                }) + "\n")
            handle.write(json.dumps({"self_time_s": self.self_times(), **summary}) + "\n")


def _union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total

"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer: its name, start and end (seconds
from ``time.perf_counter``) and the index of the span that was open when it
began (``-1`` for a root span).  Spans are appended to a list while the run
executes and written out once, when the run ends.

The untraced runs use :data:`OFF`, whose ``span`` returns one shared
no-op context manager, so the timed code path is the same in both modes.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    """Records spans in memory; nested ``span`` blocks become children."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def mark(self) -> int:
        """Position to pass as ``since`` or ``until`` to ``totals``."""
        return len(self.spans)

    def totals(self, since: int = 0, until: int | None = None) -> dict[str, float]:
        """Summed duration in seconds per span name, over the spans
        recorded between the marks ``since`` and ``until``."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans[since:until]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e, _ in self.spans if n == name]

    def dump(self, path, context: dict) -> None:
        """Write the machine context and every span as one JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "context": context,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


class _Off:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def mark(self) -> int:
        return 0


OFF = _Off()

"""In-memory span recorder used by the traced run.

A span is (id, name, start, end, parent). Spans are recorded only from the
benchmark's own files, around calls into the public phmaps API; nothing inside
the library is instrumented. A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracer for untimed and untraced runs: every span is a no-op."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.failed: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, 0.0, 0.0, parent))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.failed[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child_cover = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_cover[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += (end - start) - child_cover[sid]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def dump(self, path) -> None:
        rows = [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

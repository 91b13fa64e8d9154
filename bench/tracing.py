"""In-memory spans around calls into the library's layers.

The benchmark never patches the library: a span wraps one call that the
benchmark itself makes into a public function.  Spans are kept in memory and
written out when the run ends.  With tracing off, ``call`` is a plain call,
so the untraced run measures the library alone.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Span recorder; ``enabled=False`` makes every method a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.job = "setup"
        # one span: [name, start, end, parent index or None, job id]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, object], int] = defaultdict(int)
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[(name, self.job)] += amount

    def self_times(self, jobs, speed) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name, over spans of the given jobs.

        A span's self time is its duration minus the durations of its direct
        children; single-threaded calls nest, so children never overlap.
        ``speed`` maps each job id to the factor its times are scaled by.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            if job in jobs:
                totals[name] += (end - start - child_time[index]) * speed[job]
                calls[name] += 1
        return totals, calls

    def counted(self, name: str, jobs) -> int:
        return sum(n for (key, job), n in self.counts.items() if key == name and job in jobs)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, job in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}))
                out.write("\n")

"""Spans around calls into ``vclabels``, recorded from the benchmark's side.

A ``Tracer`` wraps library functions.  Each call through a wrapper records
a span ``[name, start, end, parent, job, count]``: ``parent`` is the index
of the enclosing span (-1 for a job's root) and ``count`` the work size
named in COUNTERS.  Spans stay in memory until ``dump``.

Calls the library makes internally run inside their caller's span.
"""

from __future__ import annotations

import json
import time

# Work size recorded on a span: members classified, members returned.
COUNTERS = {
    "classify": lambda args, result: len(args[0].members),
    "avoid_family": lambda args, result: len(result.members),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def job_span(self, job: int, start: float | None = None):
        """Open the root span of job ``job``; close it with ``end_job``."""
        self.job = job
        index = self._open("job")
        if start is not None:
            self.spans[index][1] = start
        return index

    def end_job(self, index: int) -> None:
        self._close(index)

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(fn.__name__)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index][5] = counter(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def qualified_name(fn) -> str:
    """``layer.function`` for a vclabels function, e.g. ``setsystem.classify``."""
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{fn.__qualname__}"


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own

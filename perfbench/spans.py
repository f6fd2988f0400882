"""In-memory spans around the calls into each policymap layer.

A span has a name, a start, an end, the span that caused it, and the id of
the command it belongs to.  Counts measured at a span's boundary are
attached to it.  The benchmark writes the spans out when a run ends and
derives every per-layer time from them, so nothing is timed twice.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.command = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "command": self.command,
            "start": None,
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def count(self, name: str, value) -> None:
        """Attach a count to the innermost open span."""
        self.spans[self._open[-1]]["counts"][name] = value


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    The tracer nests spans strictly (one thread, a stack of open spans),
    so children never overlap each other or outlast their parent.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out

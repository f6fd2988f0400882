"""A fixed reference task that measures how fast the machine runs right now.

The benchmark shares its machine with other work, which slows every
process on it by up to half for tens of seconds at a time.  Each timed
command is bracketed by runs of ``probe``, a pure-Python task of the same
kind as policymap's (small frozen objects, tuples, hashing, set unions)
that shares no code with it.  A command's time is then scaled by
``REFERENCE_S / probe time``: its time on the machine as it runs when the
probe takes ``REFERENCE_S``.  A change to policymap moves the command's
time and not the probe's, so it shows in full; a slow spell of the
machine moves both and cancels out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# Typical probe time on the machine the benchmark was defined on
# (2-core x86-64 VM, CPython 3.11).  It only fixes the scale.
REFERENCE_S = 0.020


@dataclass(frozen=True)
class _Step:
    node: int
    hop: int


def probe() -> float:
    """Seconds taken by the reference task."""
    started = time.perf_counter()
    cells: dict = {}
    for i in range(6500):
        step = _Step(i & 127, (i * 7) & 31)
        path = (step, _Step(step.hop, i & 15))
        key = (step.node & 15, step.hop)
        cell = cells.get(key, frozenset())
        if len(cell) < 12:
            cells[key] = cell | {path}
        hash(path)
    sum(len(cell) for cell in cells.values())
    return time.perf_counter() - started

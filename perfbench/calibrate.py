"""A fixed reference loop that tracks how fast the host runs right now.

On a shared host the speed of the same code drifts by tens of percent over
minutes, as other tenants come and go, and ``time.process_time()`` drifts
with it (the slowdown is not time spent descheduled).  The benchmark runs
this loop a few times before and after each job it times and reports times
scaled to a host on which one loop takes ``REFERENCE_S``:

    scaled = measured time * REFERENCE_S / median of the loop times beside it

so each time is scaled by the host's speed at the moment it was taken.  The
loop
mixes what the program spends its time on: interpreter work on dicts and
ints, and numpy element-wise passes over a block larger than the CPU's L2
cache, written into a buffer it keeps (no page faults).  Its inputs are
fixed, so it does the same work in every run, on every commit; a change to
``shiftgibbs`` cannot change its time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# nominal time of one loop; scaled times are seconds on a host this fast
REFERENCE_S = 0.025
# loops run in each gap between two timed samples
LOOPS_PER_GAP = 5

_BLOCK = np.linspace(0.0, 4.0, 1 << 19)
_OUT = np.empty_like(_BLOCK)
_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def loop_s() -> float:
    """Run the reference loop once and return its wall time in seconds."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(40000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    for _ in range(6):
        np.negative(_BLOCK, out=_OUT)
        np.exp(_OUT, out=_OUT)
        np.multiply(_OUT, _BLOCK, out=_OUT)
        np.maximum(_OUT, 0.3, out=_OUT)
        acc += int(_OUT.sum())
    for _ in range(20):
        _MATRIX @ _MATRIX
    return time.perf_counter() - t0


def gap(loops: int = LOOPS_PER_GAP) -> list[float]:
    """Run the reference loop ``loops`` times; returns each loop's time."""
    return [loop_s() for _ in range(loops)]


def scale(seconds: float, before: list[float], after: list[float]) -> float:
    """``seconds`` measured between the loop times ``before`` and ``after``,
    scaled to the reference host speed."""
    return seconds * REFERENCE_S / statistics.median(before + after)

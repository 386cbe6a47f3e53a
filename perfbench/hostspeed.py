"""Host-speed sampling for normalising run times.

The CPU this benchmark gets runs at a speed that changes by up to 2x within
seconds (a shared host; user CPU time equals wall time, so the process is
not descheduled, the core is just slower).  A second CPU's speed follows it
only loosely, but a short fixed chunk of work run on the SAME CPU as the
timed process does: the benchmark pins itself and its child to one CPU and,
while the child runs, wakes every ``PERIOD_S`` to time one ``chunk()``.

``factor`` turns the chunks sampled inside a time window into the host's
slowdown in that window, relative to ``REF_CHUNK_S``; a duration divided by
it is in reference-speed seconds.  The chunk is a mix of interpreted Python
and a numpy pass over 1 MB, like the program itself; it does not touch the
program, so a change to the program moves the normalised times as much as
the raw ones.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy

PERIOD_S = 0.05
REF_CHUNK_S = 1.0e-3  # one chunk at the reference speed; fixed, not measured

_ARRAY = numpy.linspace(0.0, 1.0, 1 << 17)


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts later) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def chunk() -> tuple[float, float]:
    """Time one fixed chunk of work; returns (start, duration)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    for _ in range(4):
        (_ARRAY * 1.5 + 0.5).sum()
    return t0, time.perf_counter() - t0


def factor(chunks: list[tuple[float, float]], start: float, end: float) -> float:
    """Mean chunk time over ``REF_CHUNK_S`` for the chunks that began inside
    [start, end], or all of them if none did: > 1 means a slow host."""
    inside = [d for t, d in chunks if start <= t <= end] or [d for _, d in chunks]
    return statistics.mean(inside) / REF_CHUNK_S

"""Reference speed of the host, measured next to the operations.

The reference host (2 vCPUs at 2.1 GHz in a shared virtual machine) shares
its cores with other tenants. Their load slowed all Python code by up to
1.7x for stretches longer than a 30 s run, so whole-run medians of
unchanged code varied by more than 30%. The timed loop therefore runs ``reference_kernel`` (fixed
pure-Python work of the same kind as the simulator's: heap operations,
small dicts, string formatting) every ``WINDOW_S`` seconds and scales each
operation's host time by ``REFERENCE_S`` / (the kernel's time around it).
Timing metrics thus read as host time on a host where the kernel takes
``REFERENCE_S``; a change to sentinelsim does not touch the kernel, so it
moves the scaled figures as much as the raw ones.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

# The kernel's median time on the reference host (2 vCPUs at 2.1 GHz,
# Python 3.11) when it was least loaded.
REFERENCE_S = 0.0028
WINDOW_S = 0.5
REPS = 3
# Kernel samples within this many seconds of each other are pooled.
SMOOTH_S = 1.0


def reference_kernel() -> int:
    heap = []
    tally = {}
    lines = []
    for i in range(2000):
        heapq.heappush(heap, (i * 7919 % 1000, i, f"e{i}"))
        tally[i % 97] = tally.get(i % 97, 0) + 1
    while heap:
        t, seq, name = heapq.heappop(heap)
        lines.append(f"{t}\t{name}\t{seq:04d}")
    return len("\n".join(lines)) + len(tally)


def kernel_seconds() -> float:
    """Median host time of REPS runs of the kernel."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def smooth(samples: List[float], at: List[float]) -> List[float]:
    """Each sample replaced by the median of the samples taken within
    SMOOTH_S of it, so one noisy sample does not rescale a whole window.
    Operations longer than SMOOTH_S keep their own bracketing samples."""
    return [
        statistics.median(s for s, t in zip(samples, at) if abs(t - t0) <= SMOOTH_S)
        for t0 in at
    ]

"""Host-speed readings, so that timings from a drifting shared host compare.

On a host shared with other tenants the speed of the same code drifts by
well over the benchmark's bounds within minutes (contention for cores,
caches and memory; process CPU time drifts with wall time, so CPU time is
no cure). The benchmark therefore times a fixed pure-Python kernel, which
never changes with the program, between the timed parts of a run, and
reports every end-to-end timing in *reference seconds*: host seconds times
``REF_S`` over the kernel's seconds around that part. A change to the
program moves the timed part and not the kernel; a slow stretch of the
host moves both.

The kernel is an integer loop in the interpreter's evaluation loop. Of the
kernels tried (that loop, attribute reads over many small objects, heap and
dict operations, method calls, and mixes of them) it followed the
simulator's slow stretches most closely: the log of a rep's time against
the log of the kernel's time has slope 0.93-0.99 for single transfers and
0.61 for the 500-flow population, which is why a workload can scale by a
power of the ratio (its elasticity). ``REF_S`` is about the kernel's median
on a 2-vCPU Intel Xeon VM (Python 3.11), so reference seconds read close to
that host's seconds.
"""

from __future__ import annotations

import statistics
import time

#: The kernel's seconds on the reference host.
REF_S = 0.025

perf = time.perf_counter


def kernel() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def reading() -> float:
    """Seconds the kernel takes now."""
    t0 = perf()
    kernel()
    return perf() - t0


class HostSpeed:
    """Host-speed readings taken between timed units. A unit's scale, its
    reference seconds per host second, comes from the median of the
    readings taken just before and just after it (single readings are
    noisy: a preemption can double one)."""

    def __init__(self, per_unit: int) -> None:
        self.per_unit = per_unit
        self.readings = [reading() for _ in range(per_unit)]

    def mark(self) -> int:
        """Call before a unit; pass the result to ``scale_since`` after it."""
        return max(0, len(self.readings) - self.per_unit)

    def read(self) -> None:
        """Call after each timed part of a unit."""
        self.readings.extend(reading() for _ in range(self.per_unit))

    def scale_since(self, mark: int, elasticity: float = 1.0) -> float:
        """``elasticity`` is how far the unit's time follows the kernel's:
        1 when both slow by the same factor."""
        return (REF_S / statistics.median(self.readings[mark:])) ** elasticity

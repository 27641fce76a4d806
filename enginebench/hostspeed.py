"""Host-speed calibration: end-to-end times at one reference host speed.

The benchmark runs on a few cores of a shared host whose speed moves by
20-35% over periods of seconds to minutes (neighbours' load on caches and
memory bandwidth; the process's own CPU time moves with wall time, so it
is not scheduling).  Medians over a run of a few tens of seconds inherit
that drift: on a 2-CPU x86_64 VM, paper-matrix ``op_ms_p50`` spread by a
fifth to a third of its median between runs of the same code.

:class:`HostSpeed` times a fixed pure-Python kernel — dict building,
a hash join, a sort and a grouped sum over tuples, the kind of work the
engine's tuple executor does, but no engine code — shortly before each
op and each set-up, and scales the op's wall time by
``REFERENCE_MS / kernel_ms``.  An engine change moves the op's wall time
and not the kernel's, so it moves the scaled time by the same share; a
slow host period moves both, and cancels.  The raw wall times are printed
beside the scaled ones.

The kernel runs with the garbage collector off, so the heap the engine
keeps between ops does not leak into the calibration.
"""

from __future__ import annotations

import gc
import time

#: The kernel's best-of-``REPEATS`` time, in ms, on the 2-CPU x86_64 VM
#: the benchmark's bounds were set on.  Scaled times are the times the
#: ops would take on a host that runs the kernel in exactly this long.
REFERENCE_MS = 10.0
#: Kernel runs per calibration; the fastest counts.
REPEATS = 3
#: A calibration older than this (wall seconds) is renewed before the
#: next op.
INTERVAL_S = 0.2


def kernel() -> int:
    rows = [(i, (i * 7919) % 1009, float(i)) for i in range(12000)]
    index: dict[int, list[tuple[int, float]]] = {}
    for key, group, weight in rows:
        index.setdefault(group, []).append((key, weight))
    joined = [(a, b, w1 + w2) for g in range(0, 1009, 3)
              for a, w1 in index.get(g, ())[:4]
              for b, w2 in index.get(g, ())[:4]]
    joined.sort(key=lambda r: (r[2], r[0]))
    totals: dict[int, float] = {}
    for a, _, w in joined:
        totals[a] = totals.get(a, 0.0) + w
    return len(totals)


class HostSpeed:
    """The latest calibration, renewed at most every ``INTERVAL_S``."""

    def __init__(self) -> None:
        self.kernel_ms: float | None = None
        self.measured_at = float("-inf")
        #: Every calibration of the run, in ms.
        self.samples: list[float] = []

    def calibrate(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.measured_at < INTERVAL_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                started = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        self.kernel_ms = best * 1000.0
        self.samples.append(self.kernel_ms)
        self.measured_at = time.perf_counter()

    def scale(self, seconds: float) -> float:
        """*seconds* of wall time at the reference host speed."""
        return seconds * REFERENCE_MS / self.kernel_ms

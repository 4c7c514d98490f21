"""Host speed: a fixed calibration kernel timed between stretches of cell runs.

On a shared host the same cell's run time moves by up to a factor of two,
in CPU time as much as in wall time, and the slow and fast phases last
from seconds to minutes.  Longer runs do not average that out, and no
estimator over one run's repetitions removes a phase that covers the run.
A fixed kernel that runs the same kind of Python as the simulator
(an event heap, slotted objects, dicts, sorting, small NumPy arrays) slows
down and speeds up with it.  So the benchmark times the kernel before and
after every stretch of about ``STRETCH_S`` seconds of cell runs, and
scales each run in the stretch by ``REFERENCE_S`` over the mean of those
two kernel times.  A scaled time reads as seconds on the reference host
at its usual speed.

The kernel imports nothing from ``repro``, so a change to the simulator
moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Any, List

import numpy as np

#: Median kernel time on the reference host (2 vCPUs of a shared Intel
#: Xeon host, CPython 3.11, NumPy 2.4) in its usual phase.  Only ratios of
#: scaled times matter, so the value fixes the unit, not the result.
REFERENCE_S = 0.33
#: Seconds of cell runs between two kernel timings.
STRETCH_S = 2.5
#: Arrivals the kernel simulates: about REFERENCE_S seconds of work.
KERNEL_JOBS = 2500

perf = time.perf_counter


class _Task:
    __slots__ = ("id", "due", "left", "rate")

    def __init__(self, i: int, due: float, left: float) -> None:
        self.id = i
        self.due = due
        self.left = left
        self.rate = 0.0


def kernel(jobs: int = KERNEL_JOBS) -> float:
    """A fixed, deterministic event loop; returns a checksum of its work."""
    heap = [((i * 0.6180339887) % 1.0 * jobs * 0.01, i) for i in range(jobs)]
    heapq.heapify(heap)
    live = {}
    caps = np.linspace(1.0, 2.0, 8)
    acc = 0.0
    while heap:
        now, i = heapq.heappop(heap)
        if i >= 0:
            live[i] = _Task(i, now + 0.15, 0.05 + (i * 0.37) % 0.2)
        else:
            live.pop(-i - 1, None)
        if not live:
            continue
        tasks = sorted(live.values(), key=lambda t: t.due)[:8]
        need = np.maximum(np.array([t.left for t in tasks]), 1e-6)
        share = np.minimum(need / need.sum() * caps[: len(tasks)], 1.0)
        acc += float(np.sqrt(share).sum())
        for t, s in zip(tasks, share.tolist()):
            t.rate = s
            t.left -= 0.004 * s
        head = tasks[0]
        if head.left <= 0.0 and head.id >= 0:
            heapq.heappush(heap, (now + 1e-3, -head.id - 1))
            head.id = -1
    return acc


class HostSpeed:
    """Times the kernel around stretches of timed items and sets their ``speed``.

    An item is any object with a writable ``speed`` attribute: a cell run,
    or the import probe.  ``speed`` multiplies the item's own host times.
    """

    def __init__(self) -> None:
        # The first call pays NumPy's and the allocator's lazy set-up.
        self.checksum = kernel()
        self.samples: List[float] = [self._time()]
        self._pending: List[Any] = []
        self._pending_s = 0.0

    def _time(self) -> float:
        gc.collect()
        t0 = perf()
        value = kernel()
        dt = perf() - t0
        if value != self.checksum:
            raise RuntimeError(f"calibration kernel returned {value!r}, not {self.checksum!r}")
        return dt

    def add(self, item: Any, seconds: float) -> None:
        """Count ``item`` into the open stretch; close it once it is long enough."""
        self._pending.append(item)
        self._pending_s += seconds
        if self._pending_s >= STRETCH_S:
            self.close()

    def close(self) -> None:
        """Time the kernel again and give the open stretch's items their speed."""
        if not self._pending:
            return
        after = self._time()
        speed = REFERENCE_S / (0.5 * (self.samples[-1] + after))
        self.samples.append(after)
        for item in self._pending:
            item.speed = speed
        self._pending = []
        self._pending_s = 0.0

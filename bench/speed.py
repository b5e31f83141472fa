"""Corrects the benchmark's timings for the speed changes of a shared CPU.

On a shared host a core runs at two speeds that alternate within seconds
and whose mix drifts over minutes: while a neighbour loads the other
hardware thread of the core, the same Python code takes ~1.85 times as
long. A fastest-of-a-few repetition of a multi-second task cannot escape
that, so timings drift with the host's load. The probe measures the drift
instead: a thread of the measured process wakes every `PERIOD_S` and times
a fixed ~1 ms kernel of the same kind as llespec's loops (a Python loop
over small numpy arrays) in its own CPU time. A timing taken over
[t0, t1] is scaled by the mean of `REFERENCE_S / probe time` over the
probes started within `MARGIN_S` of it: the seconds it would have taken
at the speed at which the kernel takes `REFERENCE_S`, that kernel's time
on the 2-core Xeon the benchmark was tuned on in its fast phase.

The correction holds for code that slows as much as the kernel does; the
raw timings are kept beside the corrected ones in each run's result file.
It is exact only when the probe shares the measured code's CPU, so runs
whose work is single-threaded pin the process to one CPU (`pin`).
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np

PERIOD_S = 0.05
# wide enough that a task of a few milliseconds still averages ~20 probes
MARGIN_S = 0.5
REFERENCE_S = 1.0e-3
_KERNEL_STEPS = 250


def _kernel() -> float:
    """A three-term recurrence stepped in Python over length-3 arrays."""
    a = np.array([0.5, 0.25, 0.125])
    b = np.array([0.1, 0.2])
    c = np.ones(3)
    for k in range(_KERNEL_STEPS):
        r = (a - k) * c
        r[:-1] += b * c[1:]
        x = np.empty(3)
        x[0] = r[0] / (k + 1.5)
        for i in range(1, 3):
            x[i] = (r[i] - b[i - 1] * x[i - 1]) / (k + 1.5)
        c = x
    return float(c[0])


def pin() -> set[int]:
    """Pin the calling thread, and the threads and processes it starts
    later, to the highest-numbered CPU it may use. Returns the CPUs it
    could use before, for `unpin`."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return cpus


def unpin(cpus: set[int]) -> None:
    os.sched_setaffinity(0, cpus)


class SpeedProbe:
    """`with SpeedProbe() as probe:` samples the CPU's speed while the block
    runs; afterwards `probe.speed(t0, t1)` gives the correction factor for a
    timing taken over [t0, t1] (perf_counter seconds) inside the block."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        _kernel()  # the first call pays for numpy's lazy set-up
        while True:  # at least one probe, however short the block
            t = time.perf_counter()
            c = time.thread_time()
            _kernel()
            self.times.append(time.thread_time() - c)
            self.starts.append(t)
            if self._stop.wait(PERIOD_S):
                return

    def speed(self, t0: float, t1: float) -> float:
        """Mean of REFERENCE_S / probe time over the probes started within
        MARGIN_S of [t0, t1], or the nearest probe if none did."""
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        window = self.times[lo:hi]
        return sum(REFERENCE_S / p for p in window) / len(window)

    def summary(self) -> dict:
        """Probe count and the quartiles of the probe times, for the
        result file."""
        t = sorted(self.times)
        return {"probes": len(t), "probe_s_quartiles": [t[len(t) * k // 4] for k in (1, 2, 3)]}

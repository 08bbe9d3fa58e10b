"""Wall time converted to reference-speed time.

On a shared host the CPU's speed drifts: on a 2-core Xeon virtual machine
the same sweep took from 0.7x to 1.3x its median time, changing over
seconds to minutes, with CPU time equal to wall time (no waiting, no
steal). A fixed kernel timed next to the work drifts the same way when it
does the same kind of work: over three minutes, 15-second medians of a
Monte Carlo cell moved by 10%
(interquartile range over median), but by 1% once divided by the time of
the ``numpy`` kernel; closed-form work divided by the ``python`` kernel
moved by 1% too, while each divided by the other kernel moved by 4%. For
set-up (imports), 11.6% became 5.1% with the ``module`` kernel.

So the benchmark times a kernel like the workload's work every
``EVERY_S`` seconds and reports durations at the speed where that kernel
takes its reference time: a duration between two calibrations is scaled
by reference / c, with c the kernel's time around them. Time spent in the
kernel is not counted. The kernels use no coopsense code, so a change to
the program cannot change them.

A kernel run between cells can miss time that the host steals for other
machines (``steal`` in /proc/stat) while a pool's workers run. So a gap's
length is further scaled for the share s of CPU capacity stolen around it,
with steal assumed spread evenly over the CPUs. Work spread over ``busy``
CPUs waits for the slowest of them, so a stall on any of them delays it:
its time is scaled by (1 - s) / (1 + (busy - 1) s), the inverse of
1 + busy * s / (1 - s). During one episode with s = 0.32, a two-worker pool
sweep took 1.8 times as long; this model predicts 1.9, the plain 1 - s 1.5.
"""

import bisect
import marshal
import math
import os
import statistics
import time

import numpy as np


def _numpy_kernel() -> int:
    """Small-array random draws and comparisons, as in the engine's trials."""
    rng = np.random.Generator(np.random.Philox(key=20250101))
    hits = 0
    for _ in range(100):
        variance = rng.uniform(1.0, 1.02, size=10)
        energy = variance * rng.standard_gamma(50.0, size=10)
        hits += int(np.count_nonzero(energy >= 50.0 * variance))
    return hits


def _python_kernel() -> float:
    """Scalar float arithmetic and math calls, as in the closed forms."""
    total, term = 0.0, 1.0
    for n in range(1, 6000):
        term = term * 0.999 + 1.0 / n
        total += math.exp(-term * 1e-3) if n % 3 else math.log1p(term)
    return total


_MODULE = marshal.dumps(compile("".join(
    f"def f{i}(x, y=1):\n    return [x + y * {i}, {{'k': x}}, ({i}, 'a{i}')]\n"
    f"class C{i}:\n    a = {i}\n    def m(self):\n        return self.a\n"
    for i in range(60)
), "<kernel>", "exec"))


def _module_kernel() -> int:
    """Unmarshalling and executing module code, as in an import."""
    namespace = {}
    for _ in range(3):
        exec(marshal.loads(_MODULE), namespace)
    return len(namespace)


# kernel and its median time on the 2-core Xeon the benchmark was written on
KERNELS = {
    "numpy": (_numpy_kernel, 1.2e-3),
    "python": (_python_kernel, 1.5e-3),
    "module": (_module_kernel, 3.0e-3),
}


def speed_factor(kernel: str) -> float:
    """Reference time over the median of five kernel runs."""
    function, reference = KERNELS[kernel]
    times = []
    for _ in range(5):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return reference / statistics.median(times)


def steal_s() -> float:
    """Time the host has stolen from this machine, summed over its CPUs;
    0 where the system does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class SpeedClock:
    """Calibration marks and the reference-speed durations they imply."""

    EVERY_S = 0.03  # at most this long between calibrations that ``tick``
    SMOOTH = 2  # kernel times are medians over 2 * SMOOTH + 1 neighbours

    def __init__(self, kernel: str, busy: int = 1):
        """``busy``: how many CPUs the measured work keeps busy at once."""
        self._kernel, self._reference = KERNELS[kernel]
        self._busy = busy
        self.marks = []  # (start, end) of each kernel run
        self._steal = []  # steal_s() at the end of each kernel run
        self._gaps = None

    def calibrate(self):
        start = time.perf_counter()
        self._kernel()
        self.marks.append((start, time.perf_counter()))
        self._steal.append(steal_s())
        self._gaps = None

    def tick(self):
        """Calibrate if the last calibration is ``EVERY_S`` old."""
        if not self.marks or time.perf_counter() - self.marks[-1][1] >= self.EVERY_S:
            self.calibrate()

    def _factors(self):
        if self._gaps is None:
            raw = [end - start for start, end in self.marks]
            smooth = [
                statistics.median(raw[max(0, i - self.SMOOTH): i + self.SMOOTH + 1])
                for i in range(len(raw))
            ]
            starts = [end for _, end in self.marks[:-1]]
            ends = [start for start, _ in self.marks[1:]]
            capacity = [(os.cpu_count() or 1) * (e - s) for s, e in zip(starts, ends)]
            stolen = [b - a for a, b in zip(self._steal, self._steal[1:])]
            factors = []
            for i in range(len(starts)):
                near = slice(max(0, i - self.SMOOTH), i + self.SMOOTH + 1)
                share = min(sum(stolen[near]) / max(sum(capacity[near]), 1e-9), 0.9)
                speed = 2.0 * self._reference / (smooth[i] + smooth[i + 1])
                factors.append(speed * (1.0 - share) / (1.0 + (self._busy - 1) * share))
            self._gaps = (starts, ends, factors)
        return self._gaps

    def duration(self, start: float, end: float) -> float:
        """Reference-speed length of [start, end], calibrations excluded.

        Time before the first or after the last calibration counts at the
        speed of the nearest gap between calibrations.
        """
        starts, ends, factors = self._factors()
        if not factors:
            raise ValueError("duration needs at least two calibrations")
        first, last = self.marks[0][0], self.marks[-1][1]
        total = max(0.0, min(end, first) - start) * factors[0]
        total += max(0.0, end - max(start, last)) * factors[-1]
        i = max(bisect.bisect_right(starts, start) - 1, 0)
        while i < len(factors) and starts[i] < end:
            total += max(0.0, min(end, ends[i]) - max(start, starts[i])) * factors[i]
            i += 1
        return total

    def factor(self) -> float:
        """Mean reference-speed factor over all gaps, weighted by length."""
        starts, ends, factors = self._factors()
        spans = [e - s for s, e in zip(starts, ends)]
        return sum(f * s for f, s in zip(factors, spans)) / sum(spans)

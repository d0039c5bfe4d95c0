"""Drift correction: a fixed reference kernel timed throughout each phase.

The virtual machines this benchmark runs on change speed by 20-40 % between
identical runs. During every timed phase the benchmark times this kernel
about every INTERVAL_S seconds and scales each operation's time by
NOMINAL_READING_S over the adjacent readings, so a slower or faster machine
moment moves the kernel and the operation alike and cancels out.

The kernel does integer arithmetic only, with no tuples, lists or dicts, so
it never triggers the cyclic garbage collector and cannot absorb pathrw's
collection time. pathrw cannot touch it. A change that claims a gain must
leave this file as it is.
"""

from __future__ import annotations

import time

KERNEL_ROUNDS = 1000
# median reading on the reference machine (2 vCPU VM, Python 3.11.7)
NOMINAL_READING_S = 0.000200
INTERVAL_S = 0.020


def reference_kernel(rounds: int) -> int:
    x = 1
    i = 0
    while i < rounds:
        x = (x * 48271 + i) % 2147483647
        i += 1
    return x


def read_speed() -> float:
    """One reading: the median of three timed kernel runs, which ignores a
    single run cut by preemption."""
    clock = time.perf_counter
    t0 = clock()
    reference_kernel(KERNEL_ROUNDS)
    t1 = clock()
    reference_kernel(KERNEL_ROUNDS)
    t2 = clock()
    reference_kernel(KERNEL_ROUNDS)
    t3 = clock()
    a, b, c = t1 - t0, t2 - t1, t3 - t2
    return max(min(a, b), min(max(a, b), c))


class DriftClock:
    """Readings taken between operations of a closed loop.

    Call mark() before each operation and finish() after the last one;
    factors() then gives each operation's scale factor from the readings
    on either side of it.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._last = -1e9

    def mark(self) -> int:
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            self.readings.append(read_speed())
            self._last = time.perf_counter()
        return len(self.readings) - 1

    def finish(self) -> None:
        self.readings.append(read_speed())

    def factors(self, marks: list[int]) -> list[float]:
        r = self.readings
        last = len(r) - 1
        return [
            NOMINAL_READING_S * 2.0 / (r[k] + r[min(k + 1, last)]) for k in marks
        ]

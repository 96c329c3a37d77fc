"""Speed of the benchmark's core, measured alongside the program it times.

The machine the benchmark runs on may be shared: the speed of a core drifts
by up to 2x over seconds and minutes, as other tenants load it. Two processes
that share one core see the same drift (their rates correlate above 0.99),
while two cores drift independently. So the benchmark pins itself, and with
it every CLI process it starts, to one core, and runs a reference loop of
``Fraction`` arithmetic there at the lowest priority (nice 19). The loop takes
about 1% of the core, in short slices spread over each timed interval, and
counts its iterations and its own CPU time in shared memory. Its rate over an
interval (iterations per CPU second) is the core's speed during that
interval; a wall time multiplied by ``rate / REFERENCE_RATE`` is the wall time
on a core that runs the loop at ``REFERENCE_RATE``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from fractions import Fraction

# About the loop's iterations per CPU second at nice 19 beside a busy CLI
# process on a 2-vCPU x86-64 virtual machine with Python 3.11. Fixed, so that
# rescaled times compare across runs and commits; it sets only the scale.
REFERENCE_RATE = 2500.0


def _unit() -> Fraction:
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return total


def _loop(shared, parent: int) -> None:
    os.nice(19)
    count = 0
    while True:
        _unit()
        count += 1
        shared[0] = count
        shared[1] = time.process_time()
        if count % 64 == 0 and os.getppid() != parent:
            return


class SpeedProbe:
    """Context manager: pins this process to one core and runs the reference
    loop there until exit."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._shared = ctx.Array("d", 2, lock=False)
        self._proc = ctx.Process(target=_loop, args=(self._shared, os.getpid()), daemon=True)

    def __enter__(self) -> SpeedProbe:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._proc.start()
        while self._shared[1] == 0.0:
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.join()

    def mark(self) -> tuple[float, float]:
        """(iterations, CPU seconds) of the loop so far."""
        return self._shared[0], self._shared[1]

    def scale(self, start: tuple[float, float]) -> float:
        """Factor that rescales a wall time since the mark ``start`` to the
        reference speed. Short-lived processes can keep the loop off the core
        for a while; when it got no CPU time since ``start``, the rate since
        the loop began is used instead."""
        end = self.mark()
        if end[1] <= start[1]:
            start = (0.0, 0.0)
        return (end[0] - start[0]) / (end[1] - start[1]) / REFERENCE_RATE

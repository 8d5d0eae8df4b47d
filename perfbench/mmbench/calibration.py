"""Machine-speed calibration of operation times.

On a shared VM the CPU's speed drifts with other tenants' load: a fixed
pure-Python loop takes anything from 1x to 1.8x its fastest time, in
periods that last seconds to minutes, so a run's medians (and even its
fastest times) depend on when it ran. The drift slows the package and a
loop timed next to it alike, so the benchmark times such a loop between
operations and reports each operation at a reference speed:

    calibrated_s = wall_s * REFERENCE_S / loop_s

where ``loop_s`` is the mean of the two loop times that bracket the
operation. The loop is the benchmark's own code, so a change to the
package moves calibrated times exactly as much as wall times.

The loop tracks the drift only for operations that are short next to the
loop spacing and that, like the loop, spend their time in the
interpreter. A workload of multi-second NumPy operations (paper_train) is
measured uncalibrated: there, calibrating made runs spread more, not less
(see README.md, Noise).

Only the standard library is imported, so that a set-up probe can run the
loop before numpy is first imported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

# The loop's time at the reference speed: a calibrated second is a second
# on a machine that runs the loop in this time. It is close to the loop's
# median time on the VM described in README.md, so that calibrated times
# read like wall times there.
REFERENCE_S = 0.010
LOOP_ITERATIONS = 30_000
# Operations within this long of the last loop share it; the next
# operation after that is preceded by a new loop.
INTERVAL_S = 0.2


def loop_s() -> float:
    """Wall time of the fixed calibration loop (dict and str work)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(LOOP_ITERATIONS):
        key = i % 251
        table[key] = table.get(key, 0) + len(str(i))
    return time.perf_counter() - start


def calibrate(wall_s: float, loop: float) -> float:
    return wall_s * REFERENCE_S / loop


@dataclass(frozen=True)
class Timing:
    """Wall time of one operation and the index of the loop before it."""

    wall_s: float
    loop_index: int


class Meter:
    """Times operations and, if ``calibrated``, runs the calibration loop
    between them at least every INTERVAL_S. Call ``close`` after the last
    operation, before reading calibrated times; uncalibrated, these are
    the wall times."""

    def __init__(self, calibrated: bool) -> None:
        self.calibrated = calibrated
        self.loops: list[float] = []
        self._due = 0.0
        self.closed = False

    def _calibrate(self) -> None:
        self.loops.append(loop_s())
        self._due = time.perf_counter() + INTERVAL_S

    def time(self, fn: Callable, *args: Any) -> tuple[Any, Timing]:
        """Run ``fn(*args)``; return its result and its Timing."""
        if self.calibrated and (not self.loops or time.perf_counter() >= self._due):
            self._calibrate()
        index = len(self.loops) - 1
        start = time.perf_counter()
        result = fn(*args)
        return result, Timing(time.perf_counter() - start, index)

    def close(self) -> None:
        if self.calibrated and not self.closed:
            self._calibrate()
        self.closed = True

    def calibrated_s(self, timing: Timing) -> float:
        if not self.closed:
            raise RuntimeError("Meter.close() must run before calibrated times are read")
        if not self.calibrated:
            return timing.wall_s
        before, after = self.loops[timing.loop_index], self.loops[timing.loop_index + 1]
        return calibrate(timing.wall_s, (before + after) / 2)

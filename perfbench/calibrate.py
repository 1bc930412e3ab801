"""Machine-speed calibration.

On the shared 2-vCPU VM this benchmark was defined on, CPU speed drifts
by +-20 % and more, between runs and within one run over a few seconds
(other tenants share the host), which is more than the bounds.  So every
run also times a fixed pure-Python task of the same kind as dmkit's work
(bitmask exchange checks over frozensets, sorted tuples, a dict) between
its rounds, and reports times at a reference speed: a raw time t measured
where the calibration task took c seconds is reported as
t * REFERENCE_S / c, with c the mean of the samples on either side of a
round for round rates, and the median of the run's samples for
latencies.  Run as a script, the module is the calibration interpreter
that run.py starts after each cold CLI process.  The task never calls
dmkit, so a change to dmkit cannot move it, and it runs with the garbage
collector paused, so that a larger heap left by dmkit's work does not
slow the task and hide part of a regression.

perfbench/baseline.json records the spreads (q3 - q1) / median of the
same ten-seed runs scaled and raw; run.py prints the raw figures next to
the scaled ones on its detail line.
"""

from __future__ import annotations

import gc
import random
import time

# Seconds the task takes at the reference speed (about its median on the
# 2-core x86-64 VM the benchmark was defined on, CPython 3.11).
REFERENCE_S = 0.05
_RNG = random.Random(20260809)
_FAMILIES = tuple(frozenset(m for m in range(32) if _RNG.random() < 0.5) for _ in range(2500))


def _exchange_holds(fam: frozenset) -> bool:
    masks = sorted(fam, key=lambda m: (m.bit_count(), m))
    for x in masks:
        for y in masks:
            d = x ^ y
            rest = d
            while rest:
                u = rest & -rest
                rest ^= u
                w = x ^ u
                if w in fam:
                    continue
                others = d & ~u
                while others:
                    v = others & -others
                    others ^= v
                    if w ^ v in fam:
                        break
                else:
                    return False
    return True


def seconds() -> float:
    """Wall time of one pass of the calibration task."""
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        for fam in _FAMILIES:
            seen[tuple(sorted(fam))] = _exchange_holds(fam)
        return time.perf_counter() - t0
    finally:
        if paused:
            gc.enable()


# Wall seconds, at the reference speed, of ``python3 perfbench/calibrate.py``:
# a fresh interpreter that imports numpy (as every dmkit process does) and
# runs the task once.  run.py scales cold CLI process times by it.
SPAWN_REFERENCE_S = 0.3


class Speed:
    """Calibration samples of one run.

    ``spent`` is the time taken by the samples after the first, which a
    timed job subtracts from its wall time."""

    def __init__(self) -> None:
        self.samples = [seconds()]
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(seconds())
        self.spent += time.perf_counter() - t0

    def around_last(self) -> float:
        """Mean of the last two samples: the speed around the work between them."""
        return (self.samples[-2] + self.samples[-1]) / 2


if __name__ == "__main__":
    import numpy  # noqa: F401

    seconds()

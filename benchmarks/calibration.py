"""Machine-speed calibration for the benchmark's timings.

The vCPUs the benchmark was defined on (2-vCPU Intel Xeon VM) change speed
by up to 1.8x on a time scale of seconds to minutes, and the program's
iteration times follow.  A sample whose work runs in the measuring process
is therefore scaled by REFERENCE_S / (time of this fixed pure-Python loop,
measured in that process right before and after the sample): such times
are in reference seconds, the time the sample would have taken with the
loop at REFERENCE_S.  The loop allocates nothing that outlives it, so a
program change cannot slow it.

This module imports nothing but ``time``, so a fresh interpreter can use it
before timing the program's import.
"""

import time

LOOP = 100_000
REFERENCE_S = 0.012  # the loop's typical time on the machine named above


def loop_s() -> float:
    """Wall time of the calibration loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a time measured between two loops into reference
    seconds."""
    return 2.0 * REFERENCE_S / (before_s + after_s)

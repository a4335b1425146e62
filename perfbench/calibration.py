"""A fixed pure-Python loop that measures how fast the machine runs now.

On a shared machine the speed of the CPU changes by up to half for seconds
to minutes at a time, with the load of other tenants.  Timing this loop next
to the programs, in the same process, gives the current speed; the run
divides measured times by it, so that the reported times change with the
code under test and much less with the load of the machine.
"""

from __future__ import annotations

import time

LOOPS = 40_000
# seconds the loop takes on an unloaded 2.1 GHz x86-64 core under CPython
# 3.11; times are reported at this speed
REFERENCE_S = 0.0075


def calibrate() -> float:
    """Seconds taken by the loop.  It shares no code with the program under
    test and allocates one container, so it does not advance the cyclic
    garbage collector."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(LOOPS):
        key = i % 1021
        counts[key] = counts.get(key, 0) + len(str(i))
    return time.perf_counter() - start

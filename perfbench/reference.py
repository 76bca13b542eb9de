"""A fixed pure-Python kernel that gauges how fast the host runs right now.

On a shared VM the host's speed drifts by 10-30 % over minutes, and every
timing drifts with it.  A scored run times this kernel after each timed
call.  ``samples_per_ref`` is samples per second times the kernel's
seconds, that is, samples processed per kernel run.  This cancels most of
the drift.  The kernel is a naive integer FIR on fixed data; the package
never calls it and a change to the package cannot change it.
"""

from __future__ import annotations

import random
import time

_rng = random.Random(0)
SAMPLES = tuple(_rng.randint(0, 127) for _ in range(16384))
WEIGHTS = tuple(_rng.randint(1, 8) for _ in range(16))


def kernel() -> int:
    total = 0
    for n in range(len(SAMPLES)):
        acc = 0
        for i, w in enumerate(WEIGHTS):
            if n >= i:
                acc += w * SAMPLES[n - i]
        total += acc >> 6
    return total


def seconds() -> float:
    """Host seconds for one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start

"""Machine-speed probe: a fixed chunk of pure-Python work, timed.

On a small shared host the same code runs up to twice as fast in some
stretches of seconds to minutes as in others, and every part of a job speeds
up or slows down together.  Timing this chunk between jobs measures that
drift, so that the benchmark can report times at a nominal machine speed.
"""

from __future__ import annotations

import math
import time

#: The probe's usual time on the 2-core Xeon the benchmark was sized on.
NOMINAL_S = 0.006
#: Probe time per unit of measured job time.
SHARE = 0.03
_KEYS = 4000


def probe() -> float:
    """Seconds one chunk of dict, sort and float work takes now."""
    start = time.perf_counter()
    table = {f"k{i:05d}": i * 0.5 for i in range(_KEYS)}
    total = 0.0
    for _, value in sorted(table.items(), key=lambda item: -item[1]):
        total += math.log(value + 1.0)
    return time.perf_counter() - start


def probes_after(seconds: float) -> list[float]:
    """Probe at least once, and until the probes took SHARE of seconds."""
    times = [probe()]
    while sum(times) < SHARE * seconds:
        times.append(probe())
    return times

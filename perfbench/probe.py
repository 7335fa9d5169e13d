"""A speed probe: a fixed piece of pure-Python work, timed between requests.

The machines the benchmark runs on are shared, and their speed switches
between a fast and a slow state (up to a factor of two, for seconds to
minutes at a time) whatever the benchmark does.  A whole 30-second run can
fall in either state, so no statistic over one run's own latencies repeats
from run to run.  The probe does the same kind of work as the package
(``Fraction`` arithmetic, dict and set lookups on tuple keys, recursion,
sorting, JSON) but none of its code, so a change to ``leavitt`` leaves it
alone.  Each latency is scaled by ``REFERENCE_S`` over the probe's time
around it (``adjust``): the result is the latency the machine would show in
the state in which the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

# the probe's time on the 2-vCPU machine the benchmark was defined on, in its
# fast state (1.03 ms at the 1st and 1.05 ms at the 10th percentile of 3000
# probes; 1.86 ms at the median, in the slow state)
REFERENCE_S = 0.00105
TIMES: list[float] = []  # every probe of this process, reported on stderr


def _walk(n: int, acc: list, out: set) -> None:
    if n == 0:
        out.add(tuple(acc))
        return
    for k in (1, 2):
        acc.append(k)
        _walk(n - 1, acc, out)
        acc.pop()


def _work() -> int:
    rng = random.Random(7)
    sums: dict = {}
    for _ in range(200):
        key = (rng.randrange(30), rng.randrange(30))
        sums[key] = sums.get(key, Fraction(0)) + Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
    words: set = set()
    _walk(8, [], words)
    return len(json.dumps([[list(k), str(v)] for k, v in sorted(sums.items())])) + len(words)


def measure() -> float:
    """Seconds one probe takes now."""
    t = time.perf_counter()
    _work()
    TIMES.append(time.perf_counter() - t)
    return TIMES[-1]


def adjust(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes that took ``before`` and
    ``after``, at the reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)

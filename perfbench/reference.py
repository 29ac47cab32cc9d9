"""A fixed reference kernel that gauges the host's speed.

The host's speed wanders by tens of percent within seconds and by up to
twice over an hour, and the workloads slow down with it.  The benchmark
times this kernel between its cycles and scales each cycle's times by
``NOMINAL_S`` over the kernel's time around it, so its figures read as
on a host where the kernel takes ``NOMINAL_S``.

The kernel uses nothing from the program: a change to the program moves
the workloads' times and not the kernel's.  It mixes what the
workloads spend their time on: interpreted arithmetic on dicts, reads
scattered over a few megabytes of objects, and allocation of many
small tuples.
"""

from __future__ import annotations

import random
from time import perf_counter

#: The kernel's wall time on the nominal host (seconds).
NOMINAL_S = 0.020


_rng = random.Random(0)
#: 30,000 pairs in a fixed scattered order, about 2 MB of them.  Pairs
#: of numbers are not tracked by the garbage collector, so they add
#: nothing to the program's collections.
_WALK = _rng.sample([(i, i * 0.5) for i in range(120_000)], 30_000)


def _kernel() -> float:
    table = {}
    total = 0.0
    for i in range(12_000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] / (key + 1)
    for v, w in _WALK:
        total += v + w
    tuples = [(i % 7, i % 11, i % 13) for i in range(40_000)]
    return total + len(tuples)


def measure() -> float:
    """Wall seconds of one run of the kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start

"""Host-speed reference: a fixed workload that uses no code of the program.

The 2-core host the benchmark runs on hides how much CPU it gives the
process: for minutes at a time every program runs at half speed, with
no steal time reported and no hardware counters to read.  A set of runs
taken in such a stretch and a set taken outside it cannot agree on a
wall time.

``run.py`` therefore times :func:`block` right before and right after
every set-up and every replay, and scales each wall time by
``NOMINAL_S`` over the mean of the two blocks.  A host slowdown
stretches both sides alike and cancels; a change to the program moves
only the program's side.

The block does the kinds of work the simulator does, at a working set
of tens of MB as the simulator has, because contention for caches and
memory slows a large working set more than a small one: it builds a
graph of slotted objects, walks it in scattered order, indexes it in a
dict, drains a heap of tuples and runs a few small NumPy operations.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

#: Wall seconds of one :func:`block` on an unloaded 2-core x86 host of
#: the kind the benchmark was sized on.  Scaled wall times are expressed
#: at this speed.
NOMINAL_S = 0.25

_RECORDS = 75_000
_WALKS = 2
_HEAP = 20_000


class _Record:
    __slots__ = ("key", "value", "nxt", "hits")

    def __init__(self, key: int, value: float):
        self.key, self.value, self.nxt, self.hits = key, value, None, 0


def _work() -> float:
    records = [_Record(i, float(i)) for i in range(_RECORDS)]
    order = list(range(_RECORDS))
    random.Random(7).shuffle(order)
    for a, b in zip(order, order[1:]):
        records[a].nxt = records[b]
    index = {r.key: r for r in records}
    total = 0.0
    for _ in range(_WALKS):
        r = records[order[0]]
        while r is not None:
            r.hits += 1
            total += r.value
            r = r.nxt
    heap = [(r.value * 0.5, r.key) for r in records[:_HEAP]]
    heapq.heapify(heap)
    while heap:
        heapq.heappop(heap)
    a = np.arange(64, dtype=np.float64)
    for _ in range(200):
        a = np.sqrt(a * 1.0001 + 1.0)
    return total + len(index) + float(a[0])


def block() -> float:
    """Run the fixed reference work once; returns its wall seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0

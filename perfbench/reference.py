"""A fixed pure-Python loop that gauges how fast the machine runs Python right now.

On a shared machine other tenants slow every process by up to 2x for
minutes at a time, which moves host times more than most changes do.
The loop therefore runs before each timed operation and after the last,
and host times are reported as ``REF_NOMINAL_S * (operation time / loop
time)``: seconds on a machine that runs the loop in ``REF_NOMINAL_S``.
The loop does what topomap's engine does most: heap pushes and pops of
tuples, dict updates and string formatting. It does not import topomap,
so no change to the program moves it.
"""

import gc
import heapq
import time

REF_ITEMS = 4000
# About the loop's fastest time on a shared 2-core x86-64 virtual machine
# with CPython 3.11.7 (3.7-4.2 ms); only the unit of the scaled times
# depends on it.
REF_NOMINAL_S = 0.004


def reference_work() -> int:
    heap, counts = [], {}
    for i in range(REF_ITEMS):
        heapq.heappush(heap, ((i * 7919) % 10007, i, f"m{i}"))
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
    while heap:
        heapq.heappop(heap)
    return len(counts)


def reference_s() -> float:
    # With the collector on, the loop's time would grow with whatever the
    # program left on the heap; off, it gauges the interpreter alone.
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()

"""The MEMIF pool against an exact re-computation of its sharing rule.

The rule: n active transfers each move B/n bytes per second; the next
completion is scheduled at the ceiling, in whole nanoseconds, of the time
the emptiest transfer needs; when it fires, every transfer with at most
1e-6 bytes left finishes, in start order. The oracle below applies that
rule with ``fractions.Fraction``, so it has no rounding at all. The pool
works in floats and must still land on the same nanosecond for every flow.
"""

import math
import random
from fractions import Fraction

import pytest

from topomap.platform_model import PlatformModel
from topomap.timing import _MemifPool

BPS = PlatformModel().memif_bandwidth_bytes_per_s


class _Clock:
    """The two engine fields the pool reads: the time and the event counter."""

    def __init__(self):
        self.now_ns = 0
        self._seq = 0


def pool_finish(starts, bytes_per_s):
    """Run ``(t_ns, nbytes)`` starts through the pool in the engine's ``(time, seq)`` order.

    Returns each flow's finish time and the order of the callbacks. Every
    completion moves ``due`` on by at least a nanosecond, which lets the
    engine deliver a pull that finished alone inside its completion.
    """
    clock = _Clock()
    pool = _MemifPool(clock, bytes_per_s)
    events = []
    for i, (t, nbytes) in enumerate(starts):
        events.append((t, clock._seq, i, nbytes))
        clock._seq += 1
    events.sort()
    finished, order = {}, []

    def done(i):
        finished[i] = clock.now_ns
        order.append(i)

    k = 0
    while k < len(events) or pool.due is not None:
        if k < len(events) and (pool.due is None or events[k][:2] < pool.due):
            clock.now_ns, _, i, nbytes = events[k]
            k += 1
            pool.start(nbytes, done, i)
        else:
            clock.now_ns = pool.due[0]
            pool.complete()
            assert pool.due is None or pool.due[0] > clock.now_ns, (clock.now_ns, pool.due)
    return finished, order


def exact_finish(starts, bytes_per_s):
    """The same rule in exact arithmetic; starts due at a completion's time go first."""
    bps, eps = Fraction(bytes_per_s), Fraction(1, 10**6)
    pending = sorted(range(len(starts)), key=lambda i: (starts[i][0], i))
    active: dict[int, Fraction] = {}  # remaining bytes, in start order
    now, due = 0, None
    finished, order = {}, []

    def settle(t):
        nonlocal now
        if t > now and active:
            share = bps * (t - now) / 10**9 / len(active)
            for i in active:
                active[i] -= share
        now = t

    while pending or active:
        if pending and (due is None or starts[pending[0]][0] <= due):
            i = pending.pop(0)
            settle(starts[i][0])
            active[i] = Fraction(starts[i][1])
        else:
            settle(due)
            for i in [i for i, r in active.items() if r <= eps]:
                del active[i]
                finished[i] = now
                order.append(i)
        due = now + math.ceil(max(min(active.values()), 0) * len(active) * 10**9 / bps) if active else None
    return finished, order


def random_starts(rng: random.Random):
    """1-64 flows of 1-200 kB, started within a window of 1 us to 5 ms."""
    window_ns = int(10 ** rng.uniform(3, math.log10(5_000_000)))
    return [(rng.randrange(window_ns + 1), rng.uniform(1_000, 200_000)) for _ in range(rng.randint(1, 64))]


@pytest.mark.parametrize("seed", range(120))
def test_random_schedule_matches_exact_rule(seed):
    starts = random_starts(random.Random(seed))
    assert pool_finish(starts, BPS) == exact_finish(starts, BPS)


def test_simultaneous_starts_finish_together_in_start_order():
    starts = [(0, 50_000.0)] * 8 + [(0, 25_000.0)] * 4
    finished, order = pool_finish(starts, BPS)
    assert (finished, order) == exact_finish(starts, BPS)
    assert order == list(range(8, 12)) + list(range(8))


@pytest.mark.parametrize("gap, together", [(5e-7, True), (5e-4, False)])
def test_finish_threshold_is_one_millionth_of_a_byte(gap, together):
    # At 1 B/ns flow 0 has 900 + ``gap`` bytes left when flow 1 starts with
    # 900: the later flow drains first, on a whole nanosecond, and the earlier
    # one finishes with it, and ahead of it, only if ``gap`` is at most 1e-6.
    starts = [(0, 1000.0 + gap), (100, 900.0)]
    finished, order = pool_finish(starts, 1e9)
    assert (finished, order) == exact_finish(starts, 1e9)
    assert order == ([0, 1] if together else [1, 0])
    assert (finished[0] == finished[1]) is together


def test_second_burst_after_idle_time_starts_from_zero():
    # The first flow moves 2**47 bytes exactly, leaving 2**47 bytes of virtual
    # time behind; at that magnitude a float is only exact to 1/32 byte. The
    # second burst matches the exact rule only if the drained pool starts over.
    bps = float(2**30)
    rng = random.Random(7)
    idle_ns = 2**17 * 10**9 + 1_000_000
    second = [(idle_ns + rng.randrange(2_000), rng.uniform(1_000, 200_000)) for _ in range(40)]
    starts = [(0, float(2**47))] + second
    finished, order = pool_finish(starts, bps)
    assert finished[0] == 2**17 * 10**9
    assert (finished, order) == exact_finish(starts, bps)

"""The platform's timing rules, and an exact latency model built from them.

The engine in ``topomap.engine`` charges time with the rules kept
here: microseconds round to whole nanoseconds, a transfer at a given
bandwidth takes the integer ceiling of its nanoseconds, ``Charges``
prices each cost and its jitter, readers take their copies in copy-slot
order, and concurrent MEMIF transfers share one bandwidth pool.

``predict_latency_ns`` prices one isolated, jitter-free message from the
same charges the engine schedules, without running the engine. Engine
and model both run on ``_EventLoop``, so MEMIF sharing and its
``(time, seq)`` tie order are stated only once, and the model equals the
engine's latency for every subscriber to the nanosecond.

Calibration and the ``cost`` policy price the same few MEMIF schedules
over and over, so each distinct schedule runs through the pool once and
is then looked up. The key is the schedule shifted to start at 0 (its
announce offsets from the first announcement, the lead, the size and the
bandwidth), and the first announcement is added back to every cached
completion. The shift is exact: the pool reads only time differences
when it settles and reschedules, its ``V`` rebases when it drains, and a
constant shift keeps every ``(time, seq)`` order, so the float
arithmetic sees the same operands. The cache holds 256 schedules, more
than the 82 one fit of the packaged targets needs; its entries are
tuples, so no caller can change a cached answer.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import random
from heapq import heappop, heappush

from .graph import gateway_ids
from .topics import TopicEndpoints, TopicImpl
from .platform_model import PlatformModel

NS_PER_US = 1000


def _us_to_ns(us: float) -> int:
    return round(us * NS_PER_US)


def _bytes_ns(nbytes: int, bytes_per_s: float) -> int:
    # exact integer ceiling so repeated runs cannot drift
    bps = round(bytes_per_s)
    return (nbytes * 1_000_000_000 + bps - 1) // bps


# -- the charges -------------------------------------------------------------


def _dds_ns(platform: PlatformModel, size_bytes: int) -> int:
    return _us_to_ns(platform.sw_dds_latency_us(size_bytes))


def _copy_ns(platform: PlatformModel, size_bytes: int) -> int:
    return _bytes_ns(size_bytes, platform.sw_copy_bandwidth_bytes_per_s)


def _hmt_ns(platform: PlatformModel, size_bytes: int) -> int:
    return _bytes_ns(size_bytes, platform.hmt_bandwidth_bytes_per_s)


class _PerSize(dict):
    """One charge per message size, computed on first use.

    Keyed by size, not by topic: a workload item's ``size_bytes`` overrides
    its topic's declared size.
    """

    def __init__(self, charge):
        super().__init__()
        self._charge = charge

    def __missing__(self, size: int) -> int:
        ns = self[size] = self._charge(size)
        return ns


class Charges:
    """Every charge of one run, each priced in one place.

    ``osif_ns()`` and ``delegate_ns()`` price one control call each, in ns;
    ``memif_bytes(n)`` is the effective bytes a MEMIF transfer of ``n``
    bytes moves; ``dds_ns``, ``copy_ns`` and ``hmt_ns`` map a message size
    to its software-side delivery, one serial copy and its HMT stream.
    Only control calls and MEMIF transfers jitter: with jitter ``j`` each
    call scales its nominal value by ``1 + uniform(-j, j)``, the run's next
    draw, so draws follow call order; as bytes, MEMIF jitter keeps the
    pool's throughput at its bandwidth. At jitter 0 nothing is drawn and
    each charge is exactly its nominal value (sizes are below 2**53).
    """

    def __init__(self, platform: PlatformModel, jitter: float, seed: int):
        if jitter > 0:
            # Random.uniform(a, b)'s own formula, a + (b - a) * random(), for a = -jitter, b = jitter
            lo, span, draw = -jitter, jitter - -jitter, random.Random(seed).random

            def control(us):
                return lambda: round(us * (1.0 + (lo + span * draw())) * NS_PER_US)

            self.memif_bytes = lambda nbytes: nbytes * (1.0 + (lo + span * draw()))
        else:
            control, self.memif_bytes = (lambda us: itertools.repeat(_us_to_ns(us)).__next__), float
        self.osif_ns, self.delegate_ns = control(platform.osif_roundtrip_us), control(platform.delegate_publish_us)
        self.dds_ns, self.copy_ns, self.hmt_ns = (
            _PerSize(functools.partial(charge, platform)) for charge in (_dds_ns, _copy_ns, _hmt_ns)
        )


# the roles a software-side reader can have, see ``copy_order``
SW_SUB, HW_PULL, GW_READ = "sw", "pull", "gw"


def copy_order(endpoints: TopicEndpoints, impl: TopicImpl) -> list[tuple[str, str]]:
    """A topic's software-side readers in copy-slot order, as (reader id, role).

    The readers are the software subscribers, plus each hardware
    subscriber's delegate on SMT or the gateway's reader on GW. A software
    publisher copies serially in this order, the first reader free: the
    hardware-side readers first, then the software subscribers, each group
    sorted by reader id, so a reader's slot follows its role, not its name.
    """
    readers = [(sub, SW_SUB) for sub in endpoints.sw_subs]
    if impl is TopicImpl.SMT:
        readers += [(sub, HW_PULL) for sub in endpoints.hw_subs]
    elif impl is TopicImpl.GW:
        readers.append((gateway_ids(endpoints.topic_id)[0], GW_READ))
    readers.sort(key=lambda reader: (reader[1] == SW_SUB, reader[0]))
    return readers


# -- the MEMIF bandwidth pool and the event loop that drives it -------------


class _MemifPool:
    """Egalitarian bandwidth sharing: n concurrent transfers each get B/n.

    Bytes are counted in generalized-processor-sharing virtual time
    (Parekh & Gallager): ``V`` is what each active flow has received since
    the pool last drained, so a flow started at ``V0`` with ``b`` bytes is
    done once ``V`` reaches its finish tag ``V0 + b``.  Advancing time is
    one addition and the next completion is the smallest tag, so a pool
    operation costs O(log flows).  ``V`` rebases to 0 whenever the pool
    drains, which keeps tags small and their float arithmetic tight.

    The pool holds its one pending completion as ``due = (t_ns, seq)``
    rather than as a heap event, so a reschedule replaces it instead of
    leaving a stale event behind. An ``_EventLoop`` drives it: ``seq``
    comes from the loop's counter and ``drain`` fires ``due`` in its
    ``(time, seq)`` place among the loop's events. ``sim`` is the loop,
    or any object with ``now_ns`` and ``_seq``.
    Every settled interval is recorded for throughput audits.
    """

    def __init__(self, sim, bytes_per_s: float):
        self._sim = sim
        self._bps = float(bytes_per_s)
        self._v = 0.0
        self._tags: list[tuple] = []  # heap of (finish tag, start number, fn, args)
        self._started = 0
        self._last_t = 0
        self.due: tuple[int, int] | None = None
        self.alone = True
        self.segments: list[tuple[int, int, int, float]] = []

    # ``start`` and ``complete`` settle (advance ``V`` to now, recording the
    # interval) and reschedule (set ``due`` from the smallest tag) inline,
    # each with the same float operations in the same order

    def start(self, nbytes: float, fn, *args):
        """Move ``nbytes`` through the pool, then call ``fn(*args)``."""
        sim, tags = self._sim, self._tags
        now, n = sim.now_ns, len(tags)
        dt = now - self._last_t
        if dt > 0 and n:
            share = self._bps * dt / 1e9 / n
            self._v += share
            self.segments.append((self._last_t, now, n, share * n))
        self._last_t = now
        v = self._v
        heappush(tags, (v + nbytes, self._started, fn, args))
        self._started += 1
        seq, left = sim._seq, tags[0][0] - v
        self.due = (now + math.ceil((0.0 if left < 0.0 else left) * (n + 1) * 1e9 / self._bps), seq)
        sim._seq = seq + 1

    def complete(self):
        """Fire ``due``: finish every flow that has drained, in start order.

        ``due`` moves on before the callbacks run, one after another, so an
        event a callback schedules for now runs after all of them. Every
        flow left has more than 1e-6 bytes to go, so the next ``due`` is at
        least one nanosecond later. ``alone`` is false while the callbacks
        of several flows that finish together run, so a callback can tell
        that no other one follows it.
        """
        sim, tags = self._sim, self._tags
        now, n = sim.now_ns, len(tags)  # ``due`` is set, so a flow is active
        dt = now - self._last_t
        if dt > 0:
            share = self._bps * dt / 1e9 / n
            self._v += share
            self.segments.append((self._last_t, now, n, share * n))
        self._last_t = now
        done = self._v + 1e-6
        # the head's two children bound every other tag, so when neither has drained the head finishes alone
        if tags[0][0] <= done and (n < 2 or tags[1][0] > done) and (n < 3 or tags[2][0] > done):
            _, _, fn, args = heappop(tags)
            finished = None
        else:
            finished = []
            while tags and tags[0][0] <= done:
                finished.append(heappop(tags)[1:])
            finished.sort()
        if tags:
            seq, left = sim._seq, tags[0][0] - self._v
            self.due = (now + math.ceil((0.0 if left < 0.0 else left) * len(tags) * 1e9 / self._bps), seq)
            sim._seq = seq + 1
        else:  # drained: ``V`` rebases
            self.due, self._v = None, 0.0
        if finished is None:
            fn(*args)
            return
        self.alone = False
        for _, fn, args in finished:
            fn(*args)
        self.alone = True


class _EventLoop:
    """Integer-nanosecond events in ``(time, seq)`` order, with one MEMIF pool.

    ``seq`` counts every scheduling, so events at the same nanosecond run in
    the order they were scheduled. The pool's pending completion takes its
    ``seq`` from the same counter and runs when it precedes the heap head.

    The engine is an event loop; the latency model replays its MEMIF
    schedules on one. ``drain`` pauses the cyclic garbage collector: a run
    makes no reference cycles, but its trace rows outlive it as tracked
    tuples that the collector would keep rescanning.
    """

    def __init__(self, bytes_per_s: float):
        self.now_ns = 0
        self._seq = 0
        self._heap: list = []
        self.pool = _MemifPool(self, bytes_per_s)

    def at(self, t_ns: int, fn, *args):
        """Schedule ``fn(*args)`` at ``t_ns``; ties run in scheduling order."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (t_ns, seq, fn, args))

    def drain(self):
        """Run events until the heap and the pool hold none.

        The cyclic collector is off while the loop runs and is switched
        back on afterwards, even if a handler raises, only if it was on.
        """
        heap, pool, pop = self._heap, self.pool, heappop
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                due = pool.due
                if heap and (due is None or heap[0] < due):
                    t, _, fn, args = pop(heap)
                    self.now_ns = t
                    fn(*args)
                elif due is not None:
                    self.now_ns = due[0]
                    pool.complete()
                else:
                    return
        finally:
            if collecting:
                gc.enable()


# -- the latency model ---------------------------------------------------------


def _memif_done_ns(announced_ns: list[int], lead_ns: int, size_bytes: int, bytes_per_s: float) -> list[int]:
    """When each of a message's MEMIF transfers finishes, in the engine's event order.

    Transfer ``j`` is announced at ``announced_ns[j]``, the announcements
    scheduled in list order, and starts ``lead_ns`` later; all transfers
    move ``size_bytes`` through one pool. The schedule is priced shifted
    to start at 0, so every schedule that differs only by when it starts
    runs through the pool once (see the module docstring).
    """
    if not announced_ns:
        return []
    first = announced_ns[0]
    offsets = tuple(t - first for t in announced_ns)
    return [first + t for t in _memif_schedule(offsets, lead_ns, size_bytes, bytes_per_s)]


@functools.lru_cache(maxsize=256)
def _memif_schedule(announced_ns: tuple[int, ...], lead_ns: int, size_bytes: int, bytes_per_s: float) -> tuple[int, ...]:
    """``_memif_done_ns`` of one schedule, replayed on the engine's event loop.

    Announcements and starts are scheduled on an ``_EventLoop`` as the
    engine schedules them, so a start on the nanosecond the pool drains
    runs on the same side of that completion as it does in the engine.
    """
    loop = _EventLoop(bytes_per_s)
    pool, nbytes = loop.pool, float(size_bytes)
    done = [0] * len(announced_ns)

    def finished(j):
        done[j] = loop.now_ns

    def announced(j):
        loop.at(loop.now_ns + lead_ns, pool.start, nbytes, finished, j)

    for j, t in enumerate(announced_ns):
        loop.at(t, announced, j)
    loop.drain()
    # the pool points back at the loop; dropping it lets reference counting free both
    del loop.pool
    return tuple(done)


def predict_latency_ns(
    endpoints: TopicEndpoints,
    publisher: str,
    impl: TopicImpl,
    size_bytes: int,
    platform: PlatformModel,
) -> dict[str, int]:
    """Each subscriber's latency for one isolated, jitter-free message, in ns.

    ``publisher`` publishes one message of ``size_bytes`` on the topic of
    ``endpoints``, mapped to ``impl``, with nothing else in flight. The
    charges are the engine's:

    * a hardware publisher announces over OSIF plus a delegate publish;
      its payload is already in main memory, so on SMT every reader is
      ready at once, and on HMT or GW one stream per subscriber and one
      for the gateway's tap carries it;
    * a software publisher copies serially to its readers in
      ``copy_order``, the first copy free;
    * a software subscriber's delivery follows its copy after the affine
      software latency;
    * a hardware subscriber on SMT pulls its copy over MEMIF one OSIF round
      trip after its copy is ready, sharing the pool with the other pulls;
    * a hardware subscriber on HMT or GW takes a stream's arrival after one
      OSIF round trip;
    * the gateway's cancellable read answers after two OSIF round trips,
      and the message then crosses MEMIF to the HMT stream;
    * the gateway moves a tapped message over MEMIF to main memory,
      cancels its open read (one OSIF round trip) and publishes it on SMT,
      which reaches every software subscriber at once.

    Raises ``MappingError`` where ``impl`` is illegal for the endpoints.
    """
    endpoints.check(impl)
    osif_ns = _us_to_ns(platform.osif_roundtrip_us)
    dds_ns = _dds_ns(platform, size_bytes)
    hmt_ns = _hmt_ns(platform, size_bytes)
    memif_bps = platform.memif_bandwidth_bytes_per_s
    latency: dict[str, int] = {}
    if publisher in endpoints.hw_pubs:
        t0 = osif_ns + _us_to_ns(platform.delegate_publish_us)
        copy_ns = 0  # loaned: already in main memory
        if impl is not TopicImpl.SMT:
            t_stream = t0 + hmt_ns
            for sub in endpoints.hw_subs:
                latency[sub] = t_stream + osif_ns
            if impl is TopicImpl.GW:
                (to_main_ns,) = _memif_done_ns([0], 0, size_bytes, memif_bps)
                t_pub = t_stream + to_main_ns + osif_ns + _us_to_ns(platform.delegate_publish_us)
                for sub in endpoints.sw_subs:
                    latency[sub] = t_pub + dds_ns
            return latency
    else:
        t0 = 0
        copy_ns = _copy_ns(platform, size_bytes)

    pulls, ready = [], []
    for slot, (reader, role) in enumerate(copy_order(endpoints, impl)):
        t_ready = t0 + slot * copy_ns
        if role == SW_SUB:
            latency[reader] = t_ready + dds_ns
        elif role == HW_PULL:
            pulls.append(reader)
            ready.append(t_ready)
        else:
            (to_hmt_ns,) = _memif_done_ns([0], 0, size_bytes, memif_bps)
            t_stream = t_ready + 2 * osif_ns + to_hmt_ns + hmt_ns
            for sub in endpoints.hw_subs:
                latency[sub] = t_stream + osif_ns
    if pulls:
        latency.update(zip(pulls, _memif_done_ns(ready, osif_ns, size_bytes, memif_bps)))
    return latency

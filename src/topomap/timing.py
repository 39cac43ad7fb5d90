"""The platform's timing rules, and an exact latency model built from them.

The engine in ``topomap.simulator`` charges time with the rules kept
here: microseconds round to whole nanoseconds, a transfer at a given
bandwidth takes the integer ceiling of its nanoseconds, software readers
take their copies in copy-slot order, and concurrent MEMIF transfers
share one bandwidth pool.

``predict_latency_ns`` prices one isolated, jitter-free message from the
same charges the engine schedules, without running the engine. It drives
a real ``_MemifPool``, so MEMIF sharing and its ``(time, seq)`` tie order
are stated only once, and it equals the engine's latency for every
subscriber to the nanosecond.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter

from .mapping import TopicEndpoints, TopicImpl
from .platform_model import PlatformModel

NS_PER_US = 1000


def _us_to_ns(us: float) -> int:
    return int(round(us * NS_PER_US))


def _bytes_ns(nbytes: int, bytes_per_s: float) -> int:
    # exact integer ceiling so repeated runs cannot drift
    bps = int(round(bytes_per_s))
    return (nbytes * 1_000_000_000 + bps - 1) // bps


def gateway_ids(topic_id: str) -> tuple[str, str]:
    """A topic's gateway endpoint ids on the SMT side and on the HMT side."""
    return f"gw.{topic_id}", f"gw.{topic_id}.hmt"


# the roles a software-side reader can have, see ``copy_order``
SW_SUB, HW_PULL, GW_READ = "sw", "pull", "gw"


def copy_order(endpoints: TopicEndpoints, impl: TopicImpl) -> list[tuple[str, str]]:
    """A topic's software-side readers in copy-slot order, as (reader id, role).

    The readers are the software subscribers, plus each hardware
    subscriber's delegate on SMT or the gateway's reader on GW, sorted by
    reader id. A software publisher copies serially in this order, the
    first reader free.
    """
    readers = [(sub, SW_SUB) for sub in endpoints.sw_subs]
    if impl is TopicImpl.SMT:
        readers += [(sub, HW_PULL) for sub in endpoints.hw_subs]
    elif impl is TopicImpl.GW:
        readers.append((gateway_ids(endpoints.topic_id)[0], GW_READ))
    readers.sort(key=itemgetter(0))
    return readers


# -- MEMIF bandwidth pool ---------------------------------------------------


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
    leaving a stale event behind. ``seq`` comes from the engine's counter,
    and the run loop fires ``due`` when it precedes the heap head, so the
    completion keeps its place in the engine's ``(time, seq)`` order.
    ``sim`` is the engine, or any object with its two fields ``now_ns``
    and ``_seq``. Every settled interval is recorded for throughput audits.
    """

    def __init__(self, sim, bytes_per_s: float):
        self._sim = sim
        self._bps = float(bytes_per_s)
        self._v = 0.0
        self._tags: list[tuple] = []  # heap of (finish tag, start number, fn, args)
        self._started = 0
        self._last_t = 0
        self.due: tuple[int, int] | None = None
        self.segments: list[tuple[int, int, int, float]] = []

    def start(self, nbytes: float, fn, *args):
        """Move ``nbytes`` through the pool, then call ``fn(*args)``."""
        self._settle()
        heapq.heappush(self._tags, (self._v + nbytes, self._started, fn, args))
        self._started += 1
        self._reschedule()

    def _settle(self):
        now = self._sim.now_ns
        dt = now - self._last_t
        n = len(self._tags)
        if dt > 0 and n:
            share = self._bps * dt / 1e9 / n
            self._v += share
            self.segments.append((self._last_t, now, n, share * n))
        self._last_t = now

    def _reschedule(self):
        tags = self._tags
        if not tags:
            self.due = None
            self._v = 0.0
            return
        dt_ns = math.ceil(max(tags[0][0] - self._v, 0.0) * len(tags) * 1e9 / self._bps)
        sim = self._sim
        self.due = (sim.now_ns + dt_ns, sim._seq)
        sim._seq += 1

    def complete(self):
        """Fire ``due``: finish every flow that has drained, in start order."""
        self._settle()
        tags, done = self._tags, self._v + 1e-6
        finished = []
        while tags and tags[0][0] <= done:
            finished.append(heapq.heappop(tags)[1:])
        finished.sort()
        self._reschedule()
        for _, fn, args in finished:
            fn(*args)


# -- the latency model ---------------------------------------------------------


class _Clock:
    """The two engine fields the pool reads: the time and the event counter."""

    __slots__ = ("now_ns", "_seq")

    def __init__(self):
        self.now_ns = 0
        self._seq = 0


def _memif_done_ns(announced_ns: list[int], lead_ns: int, size_bytes: int, bytes_per_s: float) -> list[int]:
    """When each of a message's MEMIF transfers finishes, in the engine's event order.

    Transfer ``j`` is announced at ``announced_ns[j]``, the announcements
    scheduled in list order, and starts ``lead_ns`` later; all transfers
    move ``size_bytes`` through one pool. The announce and start events
    take their ``seq`` from the clock exactly as the engine's do, so a
    start that falls on the nanosecond the pool drains runs on the same
    side of that completion as it does in the engine.
    """
    clock = _Clock()
    pool = _MemifPool(clock, bytes_per_s)
    heap = [(t, j, j, False) for j, t in enumerate(announced_ns)]  # (t_ns, seq, transfer, started)
    heapq.heapify(heap)
    clock._seq = len(heap)
    done = [0] * len(heap)

    def finished(j):
        done[j] = clock.now_ns

    nbytes = float(size_bytes)
    while True:
        due = pool.due
        if heap and (due is None or heap[0] < due):
            t, _, j, started = heapq.heappop(heap)
            clock.now_ns = t
            if started:
                pool.start(nbytes, finished, j)
            else:
                heapq.heappush(heap, (t + lead_ns, clock._seq, j, True))
                clock._seq += 1
        elif due is not None:
            clock.now_ns = due[0]
            pool.complete()
        else:
            return done


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
    dds_ns = _us_to_ns(platform.sw_dds_latency_us(size_bytes))
    hmt_ns = _bytes_ns(size_bytes, platform.hmt_bandwidth_bytes_per_s)
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
        copy_ns = _bytes_ns(size_bytes, platform.sw_copy_bandwidth_bytes_per_s)

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

"""The discrete-event engine: ``_Sim``, its gateway actor and routes, and the result types.

The engine charges time for four things: control-path calls across the
hardware/software interface (OSIF round trips and delegate publishes),
payload movement across the shared-memory interface (MEMIF, a single
bandwidth pool shared by all concurrent transfers), payload streaming on
the hardware transport (dedicated bandwidth per stream), and software-side
delivery with an affine latency in message size. Each run prices these
with one ``timing.Charges``, which also states which of them jitter.

Conventions baked into the paths:

* A hardware node publishes by writing its result into main memory while
  it computes, so the publish itself costs one OSIF round trip plus one
  delegate publish and moves no payload.
* A software publisher hands the first local reader a loan for free and
  copies serially for every further reader: hardware-side readers first,
  then software subscribers, each group in lexicographic order.
* A hardware subscriber on a software-transport topic pulls its own copy
  through MEMIF after one OSIF round trip; the pull shares the MEMIF pool.
* Hardware-transport subscribers each take delivery with one OSIF round
  trip after the stream arrives; streams do not share bandwidth.
* A gateway's cancellable read needs two OSIF round trips per response
  (readiness detection plus the response itself) where a plain delegate
  read needs one; that is the price of being able to abort it.

Each topic's route is plain data fixed when the engine starts: its
software-side readers are ``copy_order``'s (reader id, role) pairs, and
a fan-out serves each role in one branch, as the latency model prices it.
A loaned fan-out makes all its readers ready at once and pushes two
blocks, each one heap entry under its first seq: the hardware pulls now,
the software subscribers one software delivery later. The seq counter
still moves on by one per reader, and each block's handler runs its
readers in slot order where their own entries would have run. A pull's
delivery runs inside its pool completion, under the next seq, when that
completion finished it alone and the heap's head is later than now;
otherwise it is pushed at the same ``(time, seq)``.

Internally time is integer nanoseconds; all randomness flows from one
seeded generator, so runs are reproducible event for event. The timing
rules (nanosecond rounding, copy-slot order, the MEMIF pool) and the
``(time, seq)`` event loop the engine runs on live in ``topomap.timing``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappush
from typing import NamedTuple

from . import gateway as gw
from .graph import ComputationGraph, NodeMapping, TopicSpec, gateway_ids
from .mapping import CommMapping, TopicEndpoints, TopicImpl, check_topic_set, topic_endpoints
from .platform_model import PlatformModel
from .scenario import Relay, WorkloadItem
from .timing import HW_PULL, NS_PER_US, SW_SUB, Charges, _EventLoop, _us_to_ns, copy_order

# -- results ---------------------------------------------------------------


# builds a named tuple from a plain tuple without the generated ``__new__`` frame
_tuple_new = tuple.__new__


class TraceEvent(NamedTuple):
    t_ns: int
    kind: str
    message_id: str
    endpoint: str


class Delivery(NamedTuple):
    topic: str
    subscriber: str
    seq: int
    t_pub_ns: int
    t_deliver_ns: int

    @property
    def latency_us(self) -> float:
        return (self.t_deliver_ns - self.t_pub_ns) / NS_PER_US


@dataclass
class SimResult:
    trace: list[TraceEvent]
    deliveries: list[Delivery]
    memif_segments: list[tuple[int, int, int, float]]  # (t0_ns, t1_ns, flows, bytes)

    def kind_counts(self) -> dict[str, int]:
        return dict(Counter(ev.kind for ev in self.trace))


# -- gateway actor -----------------------------------------------------------

# the events each resting phase accepts, keyed by the phase's value: a string
# hashes in C, an enum member through a Python-level ``__hash__``
_ACCEPTS = {phase.value: events for phase, events in gw.ACCEPTED_EVENTS.items()}


class _GwActor:
    """One gateway inside the simulation: its state machine and its reader on SMT.

    Data events queue FIFO and are only handed to ``gw.step`` in phases
    that accept them; cancel acknowledgements travel on the control path
    and jump the queue, so a burst of arrivals cannot wedge a pending
    cancel.  Actions run serially from ``_actions``, the rest of the
    running step, each finishing before the next starts (``_busy`` while
    one takes simulated time); that makes gateway timing reproducible.
    Each action runs through ``_ACTION_RUN``, one table keyed by action
    class and built once: its trace kind, whether it carries a message,
    and the method that performs it.

    The reader keeps at most one cancellable read open over the messages
    offered to it; a response costs two control round trips (readiness
    detection, then the response itself).  A cancel takes back the read in
    flight, so a response still scheduled for it is dropped.
    """

    def __init__(self, sim: "_Sim", endpoints: TopicEndpoints, size_bytes: int):
        self._sim = sim
        self.endpoints = endpoints
        # its publications on SMT: a loan to each software subscriber, in copy order
        readers = [reader for reader in copy_order(endpoints, TopicImpl.GW) if reader[1] == SW_SUB]
        self._smt_route = _Route.of(TopicImpl.GW, readers, endpoints, None, size_bytes)
        self.state, actions = gw.init(*gateway_ids(endpoints.topic_id))
        self._actions: deque[gw.Action] = deque(actions)
        self._queue: deque[gw.Event] = deque()
        self._busy = False
        self._open = False
        self._pending: deque[gw.Message] = deque()
        self._inflight: gw.Message | None = None
        sim.at(0, self.post, gw.BufferLocation())

    def offer(self, message: gw.Message):
        self._pending.append(message)
        self._read()

    def _read(self):
        if self._open and self._inflight is None and self._pending:
            message = self._inflight = self._pending.popleft()
            sim = self._sim
            sim.at(sim.now_ns + sim._osif_ns() + sim._osif_ns(), self._responded, message)

    def _responded(self, message: gw.Message):
        if message is self._inflight:  # else a cancel took this read back
            self._inflight, self._open = None, False
            self.post(gw.DelegateResponse(message))

    def _cancelled(self, raced: gw.Message | None):
        self._queue.appendleft(gw.CancelResult(raced))
        if not self._busy:
            self._next()

    def post(self, event: gw.Event):
        self._queue.append(event)
        if not self._busy:
            self._next()

    def _next(self):
        """Run actions up to the first that takes simulated time, stepping on accepted events."""
        sim, actions, queue = self._sim, self._actions, self._queue
        while True:
            while not actions:
                state = self.state
                if not queue or not isinstance(queue[0], _ACCEPTS[state.phase._value_]):
                    self._busy = False
                    return  # the head waits for a phase change; order is preserved
                self.state, step_actions = gw.step(state, queue.popleft())
                actions.extend(step_actions)
            action = actions.popleft()
            kind, carries, run = _ACTION_RUN[action.__class__]
            message = action.message if carries else None
            mid = message.message_id if carries else "-"
            sim._trace.append(_tuple_new(TraceEvent, (sim.now_ns, kind, mid, self.state.own_smt_id)))
            if run(self, message):
                # the action takes simulated time; its completion moves the cursor on
                self._busy = True
                return

    # -- actions: each returns whether it takes simulated time --

    def _request(self, _message: None) -> bool:
        self._open = True
        self._read()
        return False

    def _cancel(self, _message: None) -> bool:
        # the acknowledgement returns the read the cancel raced, if any
        sim = self._sim
        raced, self._inflight, self._open = self._inflight, None, False
        sim.at(sim.now_ns + sim._osif_ns(), self._cancelled, raced)
        return False

    def _discard(self, _message: gw.Message) -> bool:
        return False

    def _to_hmt(self, message: gw.Message) -> bool:
        sim = self._sim
        sim.pool.start(sim._memif_bytes(message.size_bytes), self._read_to_hmt, message)
        return True

    def _to_main(self, message: gw.Message) -> bool:
        sim = self._sim
        sim.pool.start(sim._memif_bytes(message.size_bytes), self._written_to_main, message)
        return True

    def _publish(self, message: gw.Message) -> bool:
        sim = self._sim
        sim.at(sim.now_ns + sim._delegate_ns(), self._published, message)
        return True

    def _read_to_hmt(self, m: gw.Message):
        sim = self._sim
        sim.trace("MEMIF_TRANSFER", m.message_id, self.state.own_smt_id)
        sim.at(sim.now_ns + sim._hmt_ns[m.size_bytes], self._streamed, m)

    def _streamed(self, m: gw.Message):
        self._sim.hmt_arrival(m, self.endpoints.hw_subs)
        # own transfer loops back through the tap under the gateway's identity
        self._queue.append(gw.HmtArrival(m.loop_back(self.state.own_hmt_id)))
        self._next()

    def _written_to_main(self, m: gw.Message):
        self._sim.trace("MEMIF_TRANSFER", m.message_id, self.state.own_smt_id)
        self._next()

    def _published(self, m: gw.Message):
        self._sim._smt_fanout(self._smt_route, m, loaned=True)
        # own publication loops back through the reader
        self.offer(m.loop_back(self.state.own_smt_id))
        self._next()


# per action class: its trace kind, whether it carries a message, and the actor method that runs it
_ACTION_RUN = {
    cls: (f"GW_ACTION:{gw._ACTION_KIND[cls]}", "message" in cls.__dataclass_fields__, run)
    for cls, run in (
        (gw.RequestSmtMessage, _GwActor._request),
        (gw.CancelSmtRequest, _GwActor._cancel),
        (gw.Discard, _GwActor._discard),
        (gw.TransferToHmt, _GwActor._to_hmt),
        (gw.TransferToMain, _GwActor._to_main),
        (gw.PublishSmt, _GwActor._publish),
    )
}


# -- the engine --------------------------------------------------------------


@dataclass(frozen=True)
class _Route:
    """How one topic's messages travel, fixed when the engine starts.

    ``readers`` are ``copy_order``'s (reader id, role) pairs: the
    software-side readers in copy-slot order.  ``pulls`` and ``sw_subs``
    split them into a loaned fan-out's two blocks, each in slot order: the
    hardware subscribers that pull over MEMIF and the software
    subscribers.  ``endpoints.hw_subs`` are served on the hardware side
    when the topic has one (HMT or GW); ``actor`` is the topic's gateway on
    GW, else None.  A gateway's own route, for its publications on SMT,
    holds only the software subscribers and no actor.  ``size_bytes`` is
    the topic's declared message size, for a publication that does not
    state its own.
    """

    impl: TopicImpl
    readers: tuple[tuple[str, str], ...]
    pulls: tuple[str, ...]
    sw_subs: tuple[str, ...]
    endpoints: TopicEndpoints
    actor: _GwActor | None
    size_bytes: int

    @classmethod
    def of(
        cls,
        impl: TopicImpl,
        readers: list[tuple[str, str]],
        endpoints: TopicEndpoints,
        actor: _GwActor | None,
        size_bytes: int,
    ) -> "_Route":
        """The route over ``readers``, in copy order, with its two blocks split from them once."""
        pulls = tuple(reader for reader, role in readers if role == HW_PULL)
        sw_subs = tuple(reader for reader, role in readers if role == SW_SUB)
        return cls(impl, tuple(readers), pulls, sw_subs, endpoints, actor, size_bytes)


class _Sim(_EventLoop):
    """One run of a mapped graph; ``relays`` are a chain's, by node, as ``chain_relays`` builds them."""

    def __init__(
        self,
        graph: ComputationGraph,
        node_mapping: NodeMapping,
        comm_mapping: CommMapping,
        platform: PlatformModel,
        seed: int,
        jitter_pct: float | None = None,
        relays: dict[str, Relay] | None = None,
    ):
        super().__init__(platform.memif_bandwidth_bytes_per_s)
        charges = Charges(platform, platform.jitter_pct if jitter_pct is None else jitter_pct, seed)
        self._osif_ns, self._delegate_ns, self._memif_bytes = charges.osif_ns, charges.delegate_ns, charges.memif_bytes
        self._dds_ns, self._copy_ns, self._hmt_ns = charges.dds_ns, charges.copy_ns, charges.hmt_ns
        self._trace: list[TraceEvent] = []
        self._deliveries: list[Delivery] = []
        self._next_msg_seq: dict[str, int] = {}
        self._relays = relays or {}
        check_topic_set(graph, comm_mapping)
        self._routes = {
            topic.id: self._route(topic, topic_endpoints(graph, node_mapping, topic.id), comm_mapping.impl_of(topic.id))
            for topic in graph.topics
        }

    def _route(self, topic: TopicSpec, endpoints: TopicEndpoints, impl: TopicImpl) -> _Route:
        """Decide once how a topic's messages travel; rejects impossible mappings."""
        endpoints.check(impl)
        size = topic.message_size_bytes
        # on GW hardware subscribers listen on the HMT side, the gateway reads the SMT side
        actor = _GwActor(self, endpoints, size) if impl is TopicImpl.GW else None
        return _Route.of(impl, copy_order(endpoints, impl), endpoints, actor, size)

    # -- primitives --
    #
    # The per-hop methods below push onto the heap with the ``seq`` counter
    # and append trace rows themselves; ``at`` and ``trace`` serve the cold
    # paths and the gateway actor.

    def trace(self, kind: str, message_id: str, endpoint: str):
        self._trace.append(_tuple_new(TraceEvent, (self.now_ns, kind, message_id, endpoint)))

    def _deliver(self, message: gw.Message, subscriber: str):
        now, topic, seq = self.now_ns, message.topic, message.seq
        self._trace.append(_tuple_new(TraceEvent, (now, "DELIVER", message.message_id, subscriber)))
        self._deliveries.append(_tuple_new(Delivery, (topic, subscriber, seq, message.t_pub_ns, now)))
        if self._relays:  # only chains relay
            relay = self._relays.get(subscriber)
            if relay is not None and relay.in_topic == topic:
                self.at(now + relay.compute_ns, self.publish, subscriber, relay.out_topic, None, seq)

    def _deliver_all(self, message: gw.Message, subscribers: tuple[str, ...]):
        """A loaned fan-out's software block: each subscriber, in slot order, takes delivery now."""
        deliver = self._deliver
        for subscriber in subscribers:
            deliver(message, subscriber)

    # -- publishing --

    def publish(self, publisher: str, topic_id: str, size_bytes: int | None = None, seq: int | None = None):
        route = self._routes[topic_id]
        size = route.size_bytes if size_bytes is None else size_bytes
        if seq is None:
            seq = self._next_msg_seq.get(topic_id, 0)
            self._next_msg_seq[topic_id] = seq + 1
        now = self.now_ns
        message = gw.Message(publisher, seq, topic_id, size, t_pub_ns=now)
        self._trace.append(_tuple_new(TraceEvent, (now, "PUBLISH", message.message_id, publisher)))
        if publisher in route.endpoints.hw_pubs:
            # one OSIF round trip, then one delegate publish
            t = now + self._osif_ns() + self._delegate_ns()
            heap_seq = self._seq
            self._seq = heap_seq + 1
            heappush(self._heap, (t, heap_seq, self._from_hw, (route, message)))
        else:
            self._smt_fanout(route, message, loaned=False)

    def _from_hw(self, route: _Route, message: gw.Message):
        """A hardware publication, announced and already in main memory."""
        if route.impl is TopicImpl.SMT:
            self._smt_fanout(route, message, loaned=True)
        else:
            # one stream per hardware subscriber, plus the gateway's tap; streams share no bandwidth
            seq = self._seq
            self._seq = seq + 1
            t_arrive = self.now_ns + self._hmt_ns[message.size_bytes]
            heappush(self._heap, (t_arrive, seq, self._streams_arrived, (route, message)))

    def _smt_fanout(self, route: _Route, message: gw.Message, loaned: bool):
        """Hand the message to every software-side reader, by its ``copy_order`` role.

        A ``loaned`` fan-out (a hardware or gateway publication, already in
        main memory) makes all its readers ready at once and pushes each of
        its two blocks as one heap entry under the block's first seq: the
        hardware pulls at ``now``, then the software subscribers at
        ``now + dds``. The seq counter still moves on by one per reader. The
        seqs of a block are consecutive and no other event can take one of
        them, so nothing could run between the block's readers: one handler
        runs them in slot order where their own entries would have run.

        A software publisher copies serially, first reader free, one entry
        per reader. A hardware pull in a later serial slot is one event: its
        copy's ``SW_COPY`` row and its pull sat at adjacent keys, so nothing
        ran between them. A software subscriber's ``SW_COPY`` row is known in
        full now; its heap entry appends the built row.
        """
        heap, now, size, mid = self._heap, self.now_ns, message.size_bytes, message.message_id
        dds_ns = self._dds_ns[size]
        seq = self._seq
        if loaned:
            pulls, sw_subs = route.pulls, route.sw_subs
            if pulls:
                heappush(heap, (now, seq, self._delegate_pulls, (message, pulls)))
                seq += len(pulls)
            if sw_subs:
                heappush(heap, (now + dds_ns, seq, self._deliver_all, (message, sw_subs)))
                seq += len(sw_subs)
            self._seq = seq
            return
        copy_ns = self._copy_ns[size]
        for slot, (reader, role) in enumerate(route.readers):
            args = (message, reader)
            t_ready = now + slot * copy_ns
            if role == SW_SUB:
                if slot:
                    row = _tuple_new(TraceEvent, (t_ready, "SW_COPY", mid, reader))
                    heappush(heap, (t_ready, seq, self._trace.append, (row,)))
                    seq += 1
                heappush(heap, (t_ready + dds_ns, seq, self._deliver, args))
            elif slot:  # a hardware pull; the gateway's read is always slot 0
                heappush(heap, (t_ready, seq, self._copied_pull, args))
                seq += 1
            elif role == HW_PULL:
                heappush(heap, (now, seq, self._delegate_pulls, (message, (reader,))))
            else:
                heappush(heap, (now, seq, route.actor.offer, (message,)))
            seq += 1
        self._seq = seq

    def _copied_pull(self, message: gw.Message, subscriber: str):
        """A hardware subscriber's serial copy is done: its ``SW_COPY`` row, then its pull."""
        self._trace.append(_tuple_new(TraceEvent, (self.now_ns, "SW_COPY", message.message_id, subscriber)))
        self._delegate_pulls(message, (subscriber,))

    def _delegate_pulls(self, message: gw.Message, subscribers: tuple[str, ...]):
        """Each hardware subscriber's delegate, in slot order, fetches its copy over MEMIF after one OSIF round trip.

        A loaned fan-out's hardware block is one call; a serial fan-out's pull is a block of one.
        """
        heap, now, osif_ns, start = self._heap, self.now_ns, self._osif_ns, self._start_pull
        seq = self._seq
        for subscriber in subscribers:
            heappush(heap, (now + osif_ns(), seq, start, (message, subscriber)))
            seq += 1
        self._seq = seq

    def _start_pull(self, message: gw.Message, subscriber: str):
        self.pool.start(self._memif_bytes(message.size_bytes), self._pulled, message, subscriber)

    def _pulled(self, message: gw.Message, subscriber: str):
        """The pull is done; delivery follows on the same nanosecond, under the next seq.

        The delivery runs in place when it is the next event anyway: its
        pool completion finished this flow alone, and the heap's head is
        later than now. The pool's next ``due`` is always later than now, as
        ``complete`` finishes every flow due now. Otherwise, when a flow
        that finished with it or an event on the heap would run first, the
        delivery is pushed at ``(now, seq)``.
        """
        now = self.now_ns
        self._trace.append(_tuple_new(TraceEvent, (now, "MEMIF_TRANSFER", message.message_id, subscriber)))
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        if self.pool.alone and (not heap or heap[0][0] > now):
            self._deliver(message, subscriber)
        else:
            heappush(heap, (now, seq, self._deliver, (message, subscriber)))

    def hmt_arrival(self, message: gw.Message, subscribers: tuple[str, ...]):
        """A stream reached each hardware subscriber, in order; each takes delivery after one OSIF round trip."""
        heap, trace, now, mid, osif_ns = self._heap, self._trace, self.now_ns, message.message_id, self._osif_ns
        seq = self._seq
        for sub in subscribers:
            trace.append(_tuple_new(TraceEvent, (now, "HMT_TRANSFER", mid, sub)))
            heappush(heap, (now + osif_ns(), seq, self._deliver, (message, sub)))
            seq += 1
        self._seq = seq

    def _streams_arrived(self, route: _Route, message: gw.Message):
        """All streams of one message arrive together: the subscribers in order, then the tap."""
        self.hmt_arrival(message, route.endpoints.hw_subs)
        actor = route.actor
        if actor is not None:
            self.trace("HMT_TRANSFER", message.message_id, actor.state.own_hmt_id)
            actor.post(gw.HmtArrival(message))

    # -- run loop --

    def _publish_next(self, item: WorkloadItem, period_ns: int, first: int, seqs):
        """Publish the item's next message, after pushing the one after it.

        Publication ``k`` runs at ``period_ns * k`` under seq ``first + k``:
        the key it would have had if every publication were pushed up front.
        """
        seq = next(seqs, None)
        if seq is not None:
            heappush(self._heap, (period_ns * (seq - first), seq, self._publish_next, (item, period_ns, first, seqs)))
        self.publish(item.publisher, item.topic, item.size_bytes)

    def run(self, workload: tuple[WorkloadItem, ...]) -> SimResult:
        """Run ``workload`` to its end; ``scenario.check_workload`` must have accepted it."""
        # each item's publications take the next ``count`` seqs, in item order; only
        # an item's next publication waits on the heap, at the seq reserved for it
        first = self._seq
        self._seq += sum(item.count for item in workload)
        for item in workload:
            if item.count:
                seqs = iter(range(first + 1, first + item.count))
                heappush(self._heap, (0, first, self._publish_next, (item, _us_to_ns(item.period_us), first, seqs)))
            first += item.count
        self.drain()
        result = SimResult(self._trace, self._deliveries, self.pool.segments)
        # the pool and the gateways point back at the engine; dropping them
        # lets reference counting free a finished engine without the cyclic collector
        del self.pool, self._routes
        return result


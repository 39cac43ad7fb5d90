"""Discrete-event simulation of mapped computation graphs.

The simulator charges time for four things: control-path calls across the
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
readers in slot order where their own entries would have run.

Internally time is integer nanoseconds; all randomness flows from one
seeded generator, so runs are reproducible event for event. The timing
rules (nanosecond rounding, copy-slot order, the MEMIF pool) and the
``(time, seq)`` event loop the engine runs on live in ``topomap.timing``.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, replace
from heapq import heappush
from itertools import product
from operator import itemgetter, mul
from pathlib import Path
from typing import NamedTuple, TextIO

from . import gateway as gw
from .documents import DocumentError
from .graph import ComputationGraph, NodeMapping, Placement, TopicSpec, gateway_ids, load_document
from .mapping import (
    CommMapping,
    MappingPolicy,
    TopicEndpoints,
    TopicImpl,
    check_topic_set,
    map_communication,
    topic_endpoints,
)
from .platform_model import MAX_TIME_US, PlatformModel
from .timing import HW_PULL, NS_PER_US, SW_SUB, Charges, _EventLoop, _us_to_ns, copy_order

# -- scenario documents ----------------------------------------------------


@dataclass(frozen=True)
class WorkloadItem:
    publisher: str
    topic: str
    count: int = 1
    period_us: float = 10_000.0
    size_bytes: int | None = None  # None: use the topic's declared size


@dataclass(frozen=True)
class GridSpec:
    """Sweep descriptor for policy comparisons on star topologies."""

    publisher_kind: str  # "hw" | "sw"
    sizes: tuple[int, ...]
    hw_sub_counts: tuple[int, ...]
    sw_sub_count: int = 0
    reps: int = 50
    period_us: float = 200_000.0


@dataclass(frozen=True)
class Scenario:
    """A graph, its placement, a workload, and how to map and price the run.

    ``chain`` names a processing chain's nodes, source first; each inner node
    relays, publishing its outgoing hop ``compute_us`` after its incoming hop
    delivers. ``chain_relays`` checks the chain when the scenario runs.
    """

    graph: ComputationGraph
    node_mapping: NodeMapping
    workload: tuple[WorkloadItem, ...]
    seed: int = 0
    comm_mapping: CommMapping | None = None
    policy: MappingPolicy | None = None
    compute_us: tuple[tuple[str, float], ...] = ()
    jitter_pct: float | None = None  # None: platform default
    grid: GridSpec | None = None
    chain: tuple[str, ...] = ()

    def __post_init__(self):
        # ``resolve_mapping`` would take the mapping and drop the policy unsaid
        if self.policy is not None and self.comm_mapping is not None:
            raise ScenarioError("scenario: 'policy' and 'comm_mapping' exclude each other; give one of them")
        # ``compare_grid`` would run the star cells and leave the chain unchecked
        if self.grid is not None and self.chain:
            raise ScenarioError(_GRID_AND_CHAIN)

    def resolve_mapping(self, platform: PlatformModel = PlatformModel()) -> CommMapping:
        """The explicit mapping, else the policy's pick priced on ``platform``."""
        if self.comm_mapping is not None:
            return self.comm_mapping
        policy = self.policy if self.policy is not None else MappingPolicy.COST
        mapping, _ = map_communication(self.graph, self.node_mapping, policy, platform)
        return mapping


class ScenarioError(DocumentError):
    what = "scenario document"


_GRID_AND_CHAIN = "scenario: 'grid' and 'chain' exclude each other; a grid's star cells have no chain"


# the keys of a scenario document; ``node_mapping`` comes from the graph document
_SCENARIO_KEYS = tuple(key for key in Scenario.__dataclass_fields__ if key != "node_mapping")


def scenario_from_json(text: str, base_dir) -> Scenario:
    """Parse and range-check a scenario document; the graph is a path relative to base_dir."""
    doc = ScenarioError.known_keys(ScenarioError.decode(text), _SCENARIO_KEYS, "scenario")
    if "grid" in doc and "chain" in doc:  # an empty chain too: the document holds both keys
        raise ScenarioError(_GRID_AND_CHAIN)
    graph, node_mapping = load_document(Path(base_dir) / ScenarioError.require(doc, "graph", "scenario", str))
    if node_mapping is None:
        raise ScenarioError(f"graph document {doc['graph']!r} has no node_mapping")

    workload = []
    for i, entry in enumerate(ScenarioError.typed(doc.get("workload", []), list, "workload")):
        where = f"workload[{i}]"
        ScenarioError.known_keys(ScenarioError.typed(entry, dict, where), WorkloadItem.__dataclass_fields__, where)
        size = entry.get("size_bytes")
        workload.append(
            WorkloadItem(
                publisher=ScenarioError.require(entry, "publisher", where, str),
                topic=ScenarioError.require(entry, "topic", where, str),
                count=ScenarioError.integer(entry.get("count", WorkloadItem.count), ("{}.count", where), 0),
                period_us=ScenarioError.number(
                    entry.get("period_us", WorkloadItem.period_us), ("{}.period_us", where), MAX_TIME_US
                ),
                size_bytes=None if size is None else ScenarioError.size(size, ("{}.size_bytes", where)),
            )
        )

    comm_mapping = None
    if "comm_mapping" in doc:
        entries = ScenarioError.typed(doc["comm_mapping"], dict, "comm_mapping").items()
        comm_mapping = CommMapping(
            tuple((t, ScenarioError.member(v, ("comm_mapping.{} transport", t), TopicImpl)) for t, v in entries)
        )
    policy = None
    if "policy" in doc:
        policy = ScenarioError.member(doc["policy"], "policy", MappingPolicy)

    grid = None
    if "grid" in doc:
        g = ScenarioError.typed(doc["grid"], dict, "grid")
        ScenarioError.known_keys(g, GridSpec.__dataclass_fields__, "grid")
        grid = GridSpec(
            publisher_kind=ScenarioError.side(g.get("publisher_kind"), "grid.publisher_kind"),
            sizes=tuple(
                ScenarioError.size(v, "grid.sizes[]") for v in ScenarioError.typed(g.get("sizes"), list, "grid.sizes")
            ),
            hw_sub_counts=tuple(
                ScenarioError.integer(v, "grid.hw_sub_counts[]", 0)
                for v in ScenarioError.typed(g.get("hw_sub_counts"), list, "grid.hw_sub_counts")
            ),
            sw_sub_count=ScenarioError.integer(g.get("sw_sub_count", GridSpec.sw_sub_count), "grid.sw_sub_count", 0),
            reps=ScenarioError.integer(g.get("reps", GridSpec.reps), "grid.reps", 1),
            period_us=ScenarioError.number(g.get("period_us", GridSpec.period_us), "grid.period_us", MAX_TIME_US),
        )
        # a grid without cells compares nothing, and a cell without subscribers delivers nothing
        if not grid.sizes:
            raise ScenarioError("grid.sizes: expected at least one size, got []")
        if not grid.hw_sub_counts:
            raise ScenarioError("grid.hw_sub_counts: expected at least one count, got []")
        if grid.sw_sub_count == 0 and 0 in grid.hw_sub_counts:
            raise ScenarioError("grid.hw_sub_counts[]: 0 with grid.sw_sub_count 0 makes a cell with no subscriber")

    jitter = doc.get("jitter_pct")
    compute = ScenarioError.known_keys(
        ScenarioError.typed(doc.get("compute_us", {}), dict, "compute_us"), graph.nodes, "compute_us"
    )
    # only the types; ``chain_relays`` checks the chain against the graph when the scenario runs
    chain = ScenarioError.typed(doc.get("chain", []), list, "chain")
    return Scenario(
        graph=graph,
        node_mapping=node_mapping,
        workload=tuple(workload),
        seed=ScenarioError.integer(doc.get("seed", Scenario.seed), "seed", None),
        comm_mapping=comm_mapping,
        policy=policy,
        compute_us=tuple(
            sorted((k, ScenarioError.number(v, ("compute_us.{}", k), MAX_TIME_US)) for k, v in compute.items())
        ),
        jitter_pct=None if jitter is None else ScenarioError.number(jitter, "jitter_pct", upper=1.0),
        grid=grid,
        chain=tuple(ScenarioError.typed(node, str, "chain[]") for node in chain),
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    return ScenarioError.load(path, lambda text: scenario_from_json(text, path.parent))


# -- star topologies for sweeps --------------------------------------------


def star_graph(
    publisher_kind: str,
    hw_subs: int,
    sw_subs: int,
    size_bytes: int,
) -> tuple[ComputationGraph, NodeMapping]:
    """One publisher, one topic, a row of subscribers."""
    ScenarioError.side(publisher_kind, "publisher_kind")
    nodes = ["pub0"]
    placements = {"pub0": Placement.HW if publisher_kind == "hw" else Placement.SW}
    for i in range(hw_subs):
        n = f"hw_sub_{i + 1}"
        nodes.append(n)
        placements[n] = Placement.HW
    for i in range(sw_subs):
        n = f"sw_sub_{i + 1}"
        nodes.append(n)
        placements[n] = Placement.SW
    graph = ComputationGraph(
        nodes=tuple(nodes),
        topics=(TopicSpec("t0", size_bytes, 10.0),),
        pub_edges=(("pub0", "t0"),),
        sub_edges=tuple(("t0", n) for n in nodes[1:]),
    )
    mapping = NodeMapping(tuple(placements.items()))
    return graph, mapping


def star_scenario(
    publisher_kind: str,
    hw_subs: int,
    sw_subs: int,
    size_bytes: int,
    reps: int,
    period_us: float,
    seed: int,
    policy: MappingPolicy | None = None,
    comm_mapping: CommMapping | None = None,
    jitter_pct: float | None = None,
) -> Scenario:
    graph, node_mapping = star_graph(publisher_kind, hw_subs, sw_subs, size_bytes)
    return Scenario(
        graph=graph,
        node_mapping=node_mapping,
        workload=(WorkloadItem("pub0", "t0", count=reps, period_us=period_us),),
        seed=seed,
        policy=policy,
        comm_mapping=comm_mapping,
        jitter_pct=jitter_pct,
    )


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


class Relay(NamedTuple):
    """A chain hop: on delivery of ``in_topic``, compute for ``compute_ns``, then publish ``out_topic``."""

    in_topic: str
    out_topic: str
    compute_ns: int


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
        self.graph = graph
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
        """The pull is done; delivery follows on the same nanosecond."""
        now = self.now_ns
        self._trace.append(_tuple_new(TraceEvent, (now, "MEMIF_TRANSFER", message.message_id, subscriber)))
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (now, seq, self._deliver, (message, subscriber)))

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
        graph = self.graph
        nodes, published = set(graph.nodes), set(graph.pub_edges)
        for i, item in enumerate(workload):
            if item.publisher not in nodes:
                raise ScenarioError(f"workload publisher {item.publisher!r} is not a graph node")
            graph.topic(item.topic)  # an unknown topic raises ``UnknownTopicError``
            if (item.publisher, item.topic) not in published:
                raise ScenarioError(
                    f"workload: {item.publisher!r} does not publish topic {item.topic!r}"
                )
            # items built in code skip the document reader's checks; a bad one runs time or seqs backwards
            ScenarioError.integer(item.count, ("workload[{}].count", i), 0)
            ScenarioError.number(item.period_us, ("workload[{}].period_us", i), MAX_TIME_US)
            if item.size_bytes is not None:
                ScenarioError.size(item.size_bytes, ("workload[{}].size_bytes", i))
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


def simulate(scenario: Scenario, platform: PlatformModel, seed: int | None = None) -> SimResult:
    """Run the scenario's workload, and every hop of its chain, on ``platform``; ``seed`` overrides the scenario's."""
    relays = chain_relays(scenario)[0] if scenario.chain else None
    sim = _Sim(
        scenario.graph,
        scenario.node_mapping,
        scenario.resolve_mapping(platform),
        platform,
        scenario.seed if seed is None else seed,
        scenario.jitter_pct,
        relays,
    )
    return sim.run(scenario.workload)


# -- trace and stats output --------------------------------------------------

TRACE_HEADER = ("timestamp_us", "kind", "message_id", "endpoint")
STATS_HEADER = ("topic", "subscriber", "count", "mean_us", "stddev_us", "min_us", "max_us")


# rows joined per write: a chunk's row strings and their join are all the writer holds,
# and below 8192 rows the chunk size does not change the writer's speed
_TRACE_CHUNK = 2048
# a timestamp's three decimals by its remainder in ns, "000" to "999"; joining digit
# triples takes a tenth of the import time that formatting each number does
_MILLIS = tuple(map("".join, product("0123456789", repeat=3)))
_t_ns = itemgetter(0)


class _CsvFields(dict):
    """A string's CSV field, quoted by the csv module once per distinct string."""

    def __init__(self):
        self._buf = io.StringIO()
        self._writerow = csv.writer(self._buf, lineterminator="\n").writerow

    def __missing__(self, s: str) -> str:
        buf = self._buf
        buf.seek(0)
        buf.truncate()
        self._writerow((s, ""))
        field = self[s] = buf.getvalue()[:-2]  # drop the empty second field's ",\n"
        return field


def write_trace_csv(result: SimResult, out: TextIO) -> None:
    """Write the trace CSV to the text stream ``out``, one chunk of rows per write.

    A timestamp is the exact decimal of ``t / NS_PER_US``, printed from the integer
    quotient and remainder. A chunk that holds a negative time (the engine never
    makes one) prints its sign, then the quotient and remainder of ``abs(t)``.
    """
    q = _CsvFields()
    trace = result.trace
    out.write(",".join(q[h] for h in TRACE_HEADER) + "\n")
    for i in range(0, len(trace), _TRACE_CHUNK):
        chunk = trace[i : i + _TRACE_CHUNK]
        if 0 <= min(map(_t_ns, chunk)):
            rows = [f"{t // NS_PER_US}.{_MILLIS[t % NS_PER_US]},{q[k]},{q[m]},{q[e]}\n" for t, k, m, e in chunk]
        else:
            rows = [
                f"{'-' * (t < 0)}{abs(t) // NS_PER_US}.{_MILLIS[abs(t) % NS_PER_US]},{q[k]},{q[m]},{q[e]}\n"
                for t, k, m, e in chunk
            ]
        out.write("".join(rows))


def trace_to_csv(result: SimResult) -> str:
    """The trace CSV as one string: ``write_trace_csv`` into memory."""
    buf = io.StringIO()
    write_trace_csv(result, buf)
    return buf.getvalue()


def compute_stats(result: SimResult) -> list[dict]:
    """Per-(topic, subscriber) latency stats from the exact integer nanosecond latencies."""
    groups: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    for topic, sub, _, t_pub, t_deliver in result.deliveries:
        groups[topic, sub].append(t_deliver - t_pub)
    rows = []
    for (topic, sub), deltas in sorted(groups.items()):
        n = len(deltas)
        s1 = sum(deltas)
        s2 = sum(map(mul, deltas, deltas))
        rows.append(
            {
                "topic": topic,
                "subscriber": sub,
                "count": n,
                "mean_us": statistics.fmean([d / NS_PER_US for d in deltas]),
                "stddev_us": math.sqrt((n * s2 - s1 * s1) / (n * (n - 1))) / NS_PER_US if n > 1 else 0.0,
                "min_us": min(deltas) / NS_PER_US,
                "max_us": max(deltas) / NS_PER_US,
            }
        )
    return rows


def _table_csv(header, rows) -> str:
    """A CSV table: floats to three decimals, ``None`` as an empty cell, anything else as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else (f"{v:.3f}" if isinstance(v, float) else v) for v in row])
    return buf.getvalue()


def stats_to_csv(rows: list[dict]) -> str:
    return _table_csv(STATS_HEADER, ([r[k] for k in STATS_HEADER] for r in rows))


# -- policy comparison --------------------------------------------------------


def _fanout_latencies(result: SimResult, topic: str, subs: set[str]) -> list[float]:
    """Per-message time until the last of ``subs`` has the message, in us."""
    per_seq: dict[int, dict[str, float]] = {}
    for d in result.deliveries:
        if d.topic == topic and d.subscriber in subs:
            per_seq.setdefault(d.seq, {})[d.subscriber] = d.latency_us
    out = []
    for seq in sorted(per_seq):
        if set(per_seq[seq]) == subs:
            out.append(max(per_seq[seq].values()))
    return out


def cell_times(
    scenario: Scenario, platform: PlatformModel, policy: MappingPolicy
) -> tuple[float | None, float | None]:
    """(mean hw-side, mean sw-side) fan-out completion times for one cell."""
    result = simulate(replace(scenario, comm_mapping=None, policy=policy), platform)
    (topic_id,) = scenario.graph.topic_ids()  # a star has exactly one topic
    endpoints = topic_endpoints(scenario.graph, scenario.node_mapping, topic_id)
    hw_subs, sw_subs = set(endpoints.hw_subs), set(endpoints.sw_subs)
    t_hw = statistics.fmean(_fanout_latencies(result, topic_id, hw_subs)) if hw_subs else None
    t_sw = statistics.fmean(_fanout_latencies(result, topic_id, sw_subs)) if sw_subs else None
    return t_hw, t_sw


def compare_grid(
    scenario: Scenario,
    platform: PlatformModel,
    policy_a: MappingPolicy,
    policy_b: MappingPolicy,
) -> tuple[list[str], list[list]]:
    """Sweep the grid; both policies see identical seeds per cell."""
    grid = scenario.grid
    if grid is None:
        raise ScenarioError("scenario has no grid descriptor")
    header = [
        "publisher_kind",
        "size_bytes",
        "hw_subs",
        f"t_hw_us_{policy_a.value}",
        f"t_sw_us_{policy_a.value}",
        f"t_hw_us_{policy_b.value}",
        f"t_sw_us_{policy_b.value}",
        "speedup_hw",
        "speedup_sw",
    ]
    rows = []
    cell = 0
    for size in grid.sizes:
        for n_hw in grid.hw_sub_counts:
            cell += 1
            cell_scn = star_scenario(
                grid.publisher_kind,
                n_hw,
                grid.sw_sub_count,
                size,
                reps=grid.reps,
                period_us=grid.period_us,
                seed=scenario.seed + cell,
                jitter_pct=scenario.jitter_pct,
            )
            a_hw, a_sw = cell_times(cell_scn, platform, policy_a)
            b_hw, b_sw = cell_times(cell_scn, platform, policy_b)
            rows.append(
                [
                    grid.publisher_kind,
                    size,
                    n_hw,
                    a_hw,
                    a_sw,
                    b_hw,
                    b_sw,
                    (a_hw / b_hw) if a_hw and b_hw else None,
                    (a_sw / b_sw) if a_sw and b_sw else None,
                ]
            )
    return header, rows


def compare_means(
    scenario: Scenario,
    platform: PlatformModel,
    policy_a: MappingPolicy,
    policy_b: MappingPolicy,
) -> tuple[list[str], list[list]]:
    """Mean delivery latency per (topic, subscriber) under each policy; for scenarios without a grid."""
    means = []
    for policy in (policy_a, policy_b):
        result = simulate(replace(scenario, comm_mapping=None, policy=policy), platform)
        means.append({(r["topic"], r["subscriber"]): r["mean_us"] for r in compute_stats(result)})
    header = ["topic", "subscriber", f"mean_us_{policy_a.value}", f"mean_us_{policy_b.value}", "speedup"]
    rows = []
    for topic, sub in sorted(set(means[0]) | set(means[1])):
        a, b = means[0].get((topic, sub)), means[1].get((topic, sub))
        rows.append([topic, sub, a, b, (a / b) if a and b else None])
    return header, rows


def compare_to_csv(header: list[str], rows: list[list]) -> str:
    return _table_csv(header, rows)


# -- chains -------------------------------------------------------------------


def chain_relays(scenario: Scenario) -> tuple[dict[str, Relay], str, str]:
    """The relays of the scenario's chain, by node, and its first and last hop topics.

    Every chain rule is checked here, so every command that runs the
    scenario rejects a bad chain the same way. A hop rides the first topic,
    in graph order, that its node publishes and the next node subscribes to.
    """
    graph, chain = scenario.graph, scenario.chain
    unknown = [node for node in chain if node not in graph.nodes]
    if unknown:
        raise ScenarioError(f"chain: {unknown} name no node of the graph")
    if len(chain) < 2:
        raise ScenarioError("chain needs at least two nodes")
    if len(set(chain)) < len(chain):
        raise ScenarioError(f"chain names a node twice: {list(chain)}")
    hop_topics = []
    for a, b in zip(chain, chain[1:]):
        shared = [t for t in graph.topic_ids() if a in graph.publishers_of(t) and b in graph.subscribers_of(t)]
        if not shared:
            raise ScenarioError(f"chain: no topic connects {a!r} to {b!r}")
        hop_topics.append(shared[0])
    if len(set(hop_topics)) < len(hop_topics):
        # a relay would feed its own output back to itself or to an earlier hop
        raise ScenarioError(f"chain repeats a hop topic: {hop_topics}")
    compute = dict(scenario.compute_us)
    relays = {
        node: Relay(in_topic, out_topic, _us_to_ns(compute.get(node, 0.0)))
        for node, in_topic, out_topic in zip(chain[1:-1], hop_topics, hop_topics[1:])
    }
    first_topic = hop_topics[0]
    relayed = {relay.out_topic: node for node, relay in relays.items()}
    for item in scenario.workload:
        # a relay republishes under its input's seq, so a workload item on its topic would reuse seqs
        if item.topic in relayed:
            raise ScenarioError(f"workload: topic {item.topic!r} is published by chain relay {relayed[item.topic]!r}")
        # latencies are keyed by seq on the first hop topic, so only the chain's source may publish it
        if item.topic == first_topic and item.publisher != chain[0]:
            raise ScenarioError(
                f"workload: topic {first_topic!r} starts the chain at {chain[0]!r}, so {item.publisher!r} may not publish it"
            )
    return relays, first_topic, hop_topics[-1]


def run_chain_scenario(
    scenario: Scenario, platform: PlatformModel, chain: list[str], seed: int | None = None
) -> tuple[float, float]:
    """End-to-end latency of ``chain``, run as the scenario's own, over its workload: (mean, stddev) in us."""
    if not chain:
        raise ScenarioError("chain needs at least one node")
    if len(chain) == 1 and chain[0] in scenario.graph.nodes:
        return 0.0, 0.0  # source and sink coincide, nothing traverses a topic
    scenario = replace(scenario, chain=tuple(chain))
    _, first_topic, last_topic = chain_relays(scenario)
    deliveries = simulate(scenario, platform, seed=seed).deliveries
    # only the chain's source publishes the first hop topic, so its seqs name the chain's messages
    t_pub = {d.seq: d.t_pub_ns for d in deliveries if d.topic == first_topic}
    t_end = {d.seq: d.t_deliver_ns for d in deliveries if d.topic == last_topic and d.subscriber == chain[-1]}
    lats = [(t_end[s] - t_pub[s]) / NS_PER_US for s in sorted(t_end) if s in t_pub]
    if not lats:
        raise ScenarioError("chain produced no end-to-end deliveries")
    return statistics.fmean(lats), (statistics.stdev(lats) if len(lats) > 1 else 0.0)

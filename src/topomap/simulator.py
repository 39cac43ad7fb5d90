"""Discrete-event simulation of mapped computation graphs.

The simulator charges time for four things: control-path calls across the
hardware/software interface (OSIF round trips and delegate publishes, the
only quantities that jitter), payload movement across the shared-memory
interface (MEMIF, a single bandwidth pool shared by all concurrent
transfers), payload streaming on the hardware transport (dedicated
bandwidth per stream), and software-side delivery with an affine latency
in message size.

Conventions baked into the paths:

* A hardware node publishes by writing its result into main memory while
  it computes, so the publish itself costs one OSIF round trip plus one
  delegate publish and moves no payload.
* A software publisher hands the first local reader a loan for free and
  copies serially for every further reader, in lexicographic reader order.
* A hardware subscriber on a software-transport topic pulls its own copy
  through MEMIF after one OSIF round trip; the pull shares the MEMIF pool.
* Hardware-transport subscribers each take delivery with one OSIF round
  trip after the stream arrives; streams do not share bandwidth.
* A gateway's cancellable read needs two OSIF round trips per response
  (readiness detection plus the response itself) where a plain delegate
  read needs one; that is the price of being able to abort it.

Internally time is integer nanoseconds on a heap; all randomness flows
from one seeded generator, so runs are reproducible event for event.
The timing rules the engine charges with (nanosecond rounding, copy-slot
order, the MEMIF pool) live in ``topomap.timing``.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
import random
import statistics
from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import gateway as gw
from .graph import ComputationGraph, NodeMapping, Placement, TopicSpec, parse_document
from .mapping import (
    CommMapping,
    MappingPolicy,
    TopicEndpoints,
    TopicImpl,
    check_topic_set,
    cost_params_from_platform,
    map_communication,
    topic_endpoints,
)
from .platform_model import MAX_SIZE_BYTES, MAX_TIME_US, PlatformModel
from .timing import GW_READ, HW_PULL, NS_PER_US, _bytes_ns, _MemifPool, _us_to_ns, copy_order, gateway_ids

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
    graph: ComputationGraph
    node_mapping: NodeMapping
    workload: tuple[WorkloadItem, ...]
    seed: int = 0
    comm_mapping: CommMapping | None = None
    policy: MappingPolicy | None = None
    compute_us: tuple[tuple[str, float], ...] = ()
    jitter_pct: float | None = None  # None: platform default
    grid: GridSpec | None = None

    def resolve_mapping(self, platform: PlatformModel = PlatformModel()) -> CommMapping:
        """The explicit mapping, else the policy's pick priced on ``platform``."""
        if self.comm_mapping is not None:
            return self.comm_mapping
        policy = self.policy if self.policy is not None else MappingPolicy.COST
        cost_params = cost_params_from_platform(platform) if policy is MappingPolicy.COST else None
        mapping, _ = map_communication(self.graph, self.node_mapping, policy, cost_params)
        return mapping


class ScenarioError(ValueError):
    pass


def _integer(value, where: str, minimum: int) -> int:
    # bool is an int subclass and must not pass as a count
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "a positive" if minimum > 0 else "a non-negative"
        raise ScenarioError(f"{where} must be {kind} integer, got {value!r}")
    return value


def _size(value, where: str) -> int:
    """A message size in bytes: a positive integer below ``MAX_SIZE_BYTES``."""
    if _integer(value, where, 1) >= MAX_SIZE_BYTES:
        raise ScenarioError(f"{where} must be below {MAX_SIZE_BYTES} bytes, got {value!r}")
    return value


def _number(value, where: str, upper: float = math.inf) -> float:
    """A finite number in [0, upper)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < upper:
        kind = "a non-negative number" if upper == math.inf else f"a number in [0, {upper:g})"
        raise ScenarioError(f"{where} must be {kind}, got {value!r}")
    return float(value)


def _typed(value, kind: type, where: str):
    if not isinstance(value, kind):
        name = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ScenarioError(f"{where} must be {name}, got {value!r}")
    return value


def _known_keys(doc: dict, known, where: str) -> dict:
    """``doc`` itself, if it has no key outside ``known``."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown}")
    return doc


# the keys of a scenario document; ``node_mapping`` comes from the graph document
_SCENARIO_KEYS = ("graph", "workload", "seed", "comm_mapping", "policy", "compute_us", "jitter_pct", "grid")


def scenario_from_json(text: str, base_dir) -> Scenario:
    """Parse and range-check a scenario document; the graph is a path relative to base_dir."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid scenario JSON: {exc.msg} (line {exc.lineno})") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _known_keys(doc, _SCENARIO_KEYS, "scenario")
    if "graph" not in doc:
        raise ScenarioError("scenario: missing required key 'graph'")
    graph_path = Path(base_dir) / _typed(doc["graph"], str, "graph")
    with open(graph_path, "r", encoding="utf-8") as fh:
        graph, node_mapping = parse_document(fh.read())
    if node_mapping is None:
        raise ScenarioError(f"graph document {doc['graph']!r} has no node_mapping")

    workload = []
    for i, entry in enumerate(_typed(doc.get("workload", []), list, "workload")):
        where = f"workload[{i}]"
        if not isinstance(entry, dict) or "publisher" not in entry or "topic" not in entry:
            raise ScenarioError(f"{where}: needs 'publisher' and 'topic'")
        _known_keys(entry, WorkloadItem.__dataclass_fields__, where)
        size = entry.get("size_bytes")
        workload.append(
            WorkloadItem(
                publisher=_typed(entry["publisher"], str, f"{where}.publisher"),
                topic=_typed(entry["topic"], str, f"{where}.topic"),
                count=_integer(entry.get("count", WorkloadItem.count), f"{where}.count", 0),
                period_us=_number(entry.get("period_us", WorkloadItem.period_us), f"{where}.period_us", MAX_TIME_US),
                size_bytes=None if size is None else _size(size, f"{where}.size_bytes"),
            )
        )

    comm_mapping = None
    if "comm_mapping" in doc:
        comm_mapping = CommMapping.from_dict(_typed(doc["comm_mapping"], dict, "comm_mapping"))
    policy = None
    if "policy" in doc:
        try:
            policy = MappingPolicy(doc["policy"])
        except ValueError:
            raise ScenarioError(f"unknown policy {doc['policy']!r}") from None

    grid = None
    if "grid" in doc:
        g = _known_keys(_typed(doc["grid"], dict, "grid"), GridSpec.__dataclass_fields__, "grid")
        if g.get("publisher_kind") not in ("hw", "sw"):
            raise ScenarioError("grid.publisher_kind must be 'hw' or 'sw'")
        grid = GridSpec(
            publisher_kind=g["publisher_kind"],
            sizes=tuple(_size(v, "grid.sizes[]") for v in _typed(g.get("sizes"), list, "grid.sizes")),
            hw_sub_counts=tuple(
                _integer(v, "grid.hw_sub_counts[]", 0)
                for v in _typed(g.get("hw_sub_counts"), list, "grid.hw_sub_counts")
            ),
            sw_sub_count=_integer(g.get("sw_sub_count", GridSpec.sw_sub_count), "grid.sw_sub_count", 0),
            reps=_integer(g.get("reps", GridSpec.reps), "grid.reps", 1),
            period_us=_number(g.get("period_us", GridSpec.period_us), "grid.period_us", MAX_TIME_US),
        )

    seed = doc.get("seed", Scenario.seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError(f"seed must be an integer, got {seed!r}")
    jitter = doc.get("jitter_pct")
    compute = _typed(doc.get("compute_us", {}), dict, "compute_us")
    return Scenario(
        graph=graph,
        node_mapping=node_mapping,
        workload=tuple(workload),
        seed=seed,
        comm_mapping=comm_mapping,
        policy=policy,
        compute_us=tuple(sorted((k, _number(v, f"compute_us.{k}", MAX_TIME_US)) for k, v in compute.items())),
        jitter_pct=None if jitter is None else _number(jitter, "jitter_pct", upper=1.0),
        grid=grid,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(fh.read(), path.parent)


# -- star topologies for sweeps --------------------------------------------


def star_graph(
    publisher_kind: str,
    hw_subs: int,
    sw_subs: int,
    size_bytes: int,
) -> tuple[ComputationGraph, NodeMapping]:
    """One publisher, one topic, a row of subscribers."""
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


class _GwActor:
    """One gateway inside the simulation: its state machine and its reader on SMT.

    Data events queue FIFO and are only handed to the machine in phases
    that accept them; cancel acknowledgements travel on the control path
    and jump the queue, so a burst of arrivals cannot wedge a pending
    cancel.  Actions run serially from ``_actions``, the rest of the
    running step, each finishing before the next starts (``_busy`` while
    one takes simulated time); that makes gateway timing reproducible.

    The reader keeps at most one cancellable read open over the messages
    offered to it; a response costs two control round trips (readiness
    detection, then the response itself).  A cancel takes back the read in
    flight, so a response still scheduled for it is dropped.
    """

    def __init__(self, sim: "_Sim", endpoints: TopicEndpoints):
        self._sim = sim
        self.endpoints = endpoints
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
            dt = sim.jit_ns(sim.platform.osif_roundtrip_us) + sim.jit_ns(sim.platform.osif_roundtrip_us)
            sim.at(sim.now_ns + dt, self._responded, message)

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
        sim, actions, queue, accepts = self._sim, self._actions, self._queue, gw.ACCEPTED_EVENTS
        while True:
            while not actions:
                if not queue or not isinstance(queue[0], accepts[self.state.phase]):
                    self._busy = False
                    return  # the head waits for a phase change; order is preserved
                self.state, step_actions = gw.step(self.state, queue.popleft())
                actions.extend(step_actions)
            action = actions.popleft()
            message = getattr(action, "message", None)
            mid = "-" if message is None else message.message_id
            sim.trace(f"GW_ACTION:{gw._ACTION_KIND[type(action)]}", mid, self.state.own_smt_id)
            if isinstance(action, gw.RequestSmtMessage):
                self._open = True
                self._read()
            elif isinstance(action, gw.CancelSmtRequest):
                # the acknowledgement returns the read the cancel raced, if any
                raced, self._inflight, self._open = self._inflight, None, False
                sim.at(sim.now_ns + sim.jit_ns(sim.platform.osif_roundtrip_us), self._cancelled, raced)
            elif not isinstance(action, gw.Discard):
                break
        # the action takes simulated time; its completion moves the cursor on
        self._busy = True
        if isinstance(action, gw.TransferToHmt):
            sim.pool.start(sim.jit_bytes(message.size_bytes), self._read_to_hmt, message)
        elif isinstance(action, gw.TransferToMain):
            sim.pool.start(sim.jit_bytes(message.size_bytes), self._written_to_main, message)
        elif isinstance(action, gw.PublishSmt):
            sim.at(sim.now_ns + sim.jit_ns(sim.platform.delegate_publish_us), self._published, message)
        else:  # pragma: no cover - action set is closed
            raise AssertionError(f"unknown action {action!r}")

    def _read_to_hmt(self, m: gw.Message):
        sim = self._sim
        sim.trace("MEMIF_TRANSFER", m.message_id, self.state.own_smt_id)
        sim.at(sim.now_ns + _bytes_ns(m.size_bytes, sim.platform.hmt_bandwidth_bytes_per_s), self._streamed, m)

    def _streamed(self, m: gw.Message):
        for sub in self.endpoints.hw_subs:
            self._sim.hmt_arrival(m, sub)
        # own transfer loops back through the tap under the gateway's identity
        self._queue.append(gw.HmtArrival(gw.Message(self.state.own_hmt_id, m.seq, m.topic, m.size_bytes)))
        self._next()

    def _written_to_main(self, m: gw.Message):
        self._sim.trace("MEMIF_TRANSFER", m.message_id, self.state.own_smt_id)
        self._next()

    def _published(self, m: gw.Message):
        sim = self._sim
        for sub in self.endpoints.sw_subs:
            sim.sw_take(sub, m, sim.now_ns)
        # own publication loops back through the reader
        self.offer(gw.Message(self.state.own_smt_id, m.seq, m.topic, m.size_bytes))
        self._next()


# -- the engine --------------------------------------------------------------


@dataclass(frozen=True)
class RelaySpec:
    """Chain hop: on delivery of in_topic, compute, then publish out_topic."""

    in_topic: str
    out_topic: str
    compute_us: float


@dataclass(frozen=True)
class _Route:
    """How one topic's messages travel, fixed when the engine starts.

    ``readers`` are the software-side readers in reader-id order as
    (copy slot, reader id, take); ``take(message, t_ready)`` schedules the
    reader's share once its copy is ready.  ``endpoints.hw_subs`` are
    served on the hardware side when the topic has one (HMT or GW).
    """

    impl: TopicImpl
    readers: tuple[tuple[int, str, Callable[[gw.Message, int], None]], ...]
    endpoints: TopicEndpoints
    actor: _GwActor | None


class _Sim:
    def __init__(
        self,
        graph: ComputationGraph,
        node_mapping: NodeMapping,
        comm_mapping: CommMapping,
        platform: PlatformModel,
        seed: int,
        jitter_pct: float | None = None,
        relays: dict[str, RelaySpec] | None = None,
    ):
        self.graph = graph
        self.node_mapping = node_mapping
        self.comm_mapping = comm_mapping
        self.platform = platform
        jitter = platform.jitter_pct if jitter_pct is None else jitter_pct
        # Random.uniform(a, b)'s own formula, a + (b - a) * random(), for a = -jitter, b = jitter
        self._jitter_lo, self._jitter_span = -jitter, jitter - -jitter
        self._random = random.Random(seed).random
        self._heap: list = []
        self._seq = 0
        self.now_ns = 0
        self.pool = _MemifPool(self, platform.memif_bandwidth_bytes_per_s)
        self._trace: list[TraceEvent] = []
        self._deliveries: list[Delivery] = []
        self._pub_times: dict[tuple[str, int], int] = {}
        self._next_msg_seq: dict[str, int] = {}
        self._relays = relays or {}
        check_topic_set(graph, comm_mapping)
        self._routes = {topic_id: self._route(topic_id) for topic_id in graph.topic_ids()}

    def _route(self, topic_id: str) -> _Route:
        """Decide once how a topic's messages travel; rejects impossible mappings."""
        impl = self.comm_mapping.impl_of(topic_id)
        endpoints = topic_endpoints(self.graph, self.node_mapping, topic_id)
        endpoints.check(impl)

        def later(fn):
            return lambda m, t: self.at(t, fn, m)

        # on GW hardware subscribers listen on the HMT side, the gateway reads the SMT side
        actor = _GwActor(self, endpoints) if impl is TopicImpl.GW else None

        def take(reader: str, role: str):
            if role == HW_PULL:
                return later(partial(self._delegate_pull, reader))
            if role == GW_READ:
                return later(actor.offer)
            return partial(self.sw_take, reader)

        readers = enumerate(copy_order(endpoints, impl))
        return _Route(impl, tuple((slot, reader, take(reader, role)) for slot, (reader, role) in readers), endpoints, actor)

    # -- primitives --

    def at(self, t_ns: int, fn, *args):
        """Schedule ``fn(*args)`` at ``t_ns``; ties run in scheduling order."""
        heapq.heappush(self._heap, (t_ns, self._seq, fn, args))
        self._seq += 1

    def jit_ns(self, us: float) -> int:
        """``_us_to_ns`` of ``us`` scaled by one jitter draw; draws only when jitter is on."""
        factor = 1.0
        if self._jitter_span > 0:
            factor += self._jitter_lo + self._jitter_span * self._random()
        return int(round(us * factor * NS_PER_US))

    def jit_bytes(self, nbytes: int) -> float:
        """MEMIF arbitration jitter, charged as effective bytes moved.

        Keeps the pool's aggregate throughput exactly at the configured
        bandwidth; dedicated HMT streams carry no such noise.
        """
        factor = 1.0
        if self._jitter_span > 0:
            factor += self._jitter_lo + self._jitter_span * self._random()
        return nbytes * factor

    def sw_take(self, subscriber: str, message: gw.Message, t_ready: int):
        """A software subscriber's copy is ready; software-side delivery follows."""
        t_deliver = t_ready + _us_to_ns(self.platform.sw_dds_latency_us(message.size_bytes))
        self.deliver_at(t_deliver, message.topic, subscriber, message.seq)

    def trace(self, kind: str, message_id: str, endpoint: str):
        self._trace.append(_tuple_new(TraceEvent, (self.now_ns, kind, message_id, endpoint)))

    def deliver_at(self, t_ns: int, topic: str, subscriber: str, seq: int):
        # the hottest push: same entry as ``at``, one frame fewer
        heapq.heappush(self._heap, (t_ns, self._seq, self._deliver, (topic, subscriber, seq)))
        self._seq += 1

    def _deliver(self, topic: str, subscriber: str, seq: int):
        now = self.now_ns
        self._trace.append(_tuple_new(TraceEvent, (now, "DELIVER", f"{topic}#{seq}", subscriber)))
        t_pub = self._pub_times[(topic, seq)]
        self._deliveries.append(_tuple_new(Delivery, (topic, subscriber, seq, t_pub, now)))
        relay = self._relays.get(subscriber)
        if relay is not None and relay.in_topic == topic:
            t_out = self.now_ns + _us_to_ns(relay.compute_us)
            self.at(t_out, self.publish, subscriber, relay.out_topic, None, seq)

    # -- publishing --

    def publish(self, publisher: str, topic_id: str, size_bytes: int | None = None, seq: int | None = None):
        route = self._routes[topic_id]
        size = self.graph.topic(topic_id).message_size_bytes if size_bytes is None else size_bytes
        if seq is None:
            seq = self._next_msg_seq.get(topic_id, 0)
            self._next_msg_seq[topic_id] = seq + 1
        self._pub_times[(topic_id, seq)] = self.now_ns
        message = gw.Message(publisher, seq, topic_id, size)
        self.trace("PUBLISH", message.message_id, publisher)
        if publisher in route.endpoints.hw_pubs:
            dt = self.jit_ns(self.platform.osif_roundtrip_us) + self.jit_ns(self.platform.delegate_publish_us)
            self.at(self.now_ns + dt, self._from_hw, route, message)
        else:
            self._smt_fanout(route, message, loaned=False)

    def _from_hw(self, route: _Route, message: gw.Message):
        """A hardware publication, announced and already in main memory."""
        if route.impl is TopicImpl.SMT:
            self._smt_fanout(route, message, loaned=True)
        else:
            # one stream per hardware subscriber, plus the gateway's tap; streams share no bandwidth
            t_arrive = self.now_ns + _bytes_ns(message.size_bytes, self.platform.hmt_bandwidth_bytes_per_s)
            self.at(t_arrive, self._streams_arrived, route, message)

    def _smt_fanout(self, route: _Route, message: gw.Message, loaned: bool):
        """Hand the message to every software-side reader.

        ``loaned`` fan-out (hardware publications, already in main memory)
        reaches all readers at once; a software publisher copies serially,
        first reader free.
        """
        copy_ns = _bytes_ns(message.size_bytes, self.platform.sw_copy_bandwidth_bytes_per_s)
        for slot, reader, take in route.readers:
            t_ready = self.now_ns if loaned else self.now_ns + slot * copy_ns
            if not loaned and slot > 0:
                self.at(t_ready, self.trace, "SW_COPY", message.message_id, reader)
            take(message, t_ready)

    def _delegate_pull(self, subscriber: str, message: gw.Message):
        """A hardware subscriber's delegate fetches its copy over MEMIF."""
        dt = self.jit_ns(self.platform.osif_roundtrip_us)
        self.at(self.now_ns + dt, self._start_pull, subscriber, message)

    def _start_pull(self, subscriber: str, message: gw.Message):
        self.pool.start(self.jit_bytes(message.size_bytes), self._pulled, subscriber, message)

    def _pulled(self, subscriber: str, message: gw.Message):
        self.trace("MEMIF_TRANSFER", message.message_id, subscriber)
        self.deliver_at(self.now_ns, message.topic, subscriber, message.seq)

    def hmt_arrival(self, message: gw.Message, subscriber: str):
        """A stream reached a hardware subscriber, which takes delivery after one OSIF round trip."""
        self.trace("HMT_TRANSFER", message.message_id, subscriber)
        dt = self.jit_ns(self.platform.osif_roundtrip_us)
        self.deliver_at(self.now_ns + dt, message.topic, subscriber, message.seq)

    def _streams_arrived(self, route: _Route, message: gw.Message):
        """All streams of one message arrive together: the subscribers in order, then the tap."""
        for sub in route.endpoints.hw_subs:
            self.hmt_arrival(message, sub)
        actor = route.actor
        if actor is not None:
            self.trace("HMT_TRANSFER", message.message_id, actor.state.own_hmt_id)
            actor.post(gw.HmtArrival(message))

    # -- run loop --

    def run(self, workload: tuple[WorkloadItem, ...]) -> SimResult:
        for item in workload:
            if item.publisher not in self.graph.nodes:
                raise ScenarioError(f"workload publisher {item.publisher!r} is not a graph node")
            if item.publisher not in self.graph.publishers_of(item.topic):
                raise ScenarioError(
                    f"workload: {item.publisher!r} does not publish topic {item.topic!r}"
                )
            period_ns = _us_to_ns(item.period_us)
            for k in range(item.count):
                self.at(period_ns * k, self.publish, item.publisher, item.topic, item.size_bytes)
        heap, pool, pop = self._heap, self.pool, heapq.heappop
        while True:
            # the pool's completion is due before the heap head: same (time, seq) order as a heap event
            due = pool.due
            if heap and (due is None or heap[0] < due):
                t, _, fn, args = pop(heap)
                self.now_ns = t
                fn(*args)
            elif due is not None:
                self.now_ns = due[0]
                pool.complete()
            else:
                break
        return SimResult(self._trace, self._deliveries, list(self.pool.segments))


def simulate(
    scenario: Scenario,
    platform: PlatformModel,
    seed: int | None = None,
    relays: dict[str, RelaySpec] | None = None,
) -> SimResult:
    comm_mapping = scenario.resolve_mapping(platform)
    sim = _Sim(
        scenario.graph,
        scenario.node_mapping,
        comm_mapping,
        platform,
        seed=scenario.seed if seed is None else seed,
        jitter_pct=scenario.jitter_pct,
        relays=relays,
    )
    return sim.run(scenario.workload)


# -- trace and stats output --------------------------------------------------

TRACE_HEADER = ("timestamp_us", "kind", "message_id", "endpoint")
STATS_HEADER = ("topic", "subscriber", "count", "mean_us", "stddev_us", "min_us", "max_us")


# rows joined per chunk, so no list of one string per row spans the whole trace
_TRACE_CHUNK = 8192


class _CsvFields(dict):
    """A string's CSV field, quoted by the csv module once per distinct string."""

    def __missing__(self, s: str) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((s, ""))
        field = self[s] = buf.getvalue()[:-2]  # drop the empty second field's ",\n"
        return field


def trace_to_csv(result: SimResult) -> str:
    q = _CsvFields()
    trace = result.trace
    parts = [",".join(q[h] for h in TRACE_HEADER) + "\n"]
    for i in range(0, len(trace), _TRACE_CHUNK):
        parts.append(
            "".join(
                [f"{t / NS_PER_US:.3f},{q[k]},{q[m]},{q[e]}\n" for t, k, m, e in trace[i : i + _TRACE_CHUNK]]
            )
        )
    return "".join(parts)


def compute_stats(result: SimResult) -> list[dict]:
    """Per-(topic, subscriber) latency stats from the exact integer nanosecond latencies."""
    groups: dict[tuple[str, str], list[int]] = {}
    for topic, sub, _, t_pub, t_deliver in result.deliveries:
        groups.setdefault((topic, sub), []).append(t_deliver - t_pub)
    rows = []
    for (topic, sub), deltas in sorted(groups.items()):
        n = len(deltas)
        s1 = sum(deltas)
        s2 = sum(d * d for d in deltas)
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
    seed: int | None = None,
) -> tuple[list[str], list[list]]:
    """Sweep the grid; both policies see identical seeds per cell."""
    grid = scenario.grid
    if grid is None:
        raise ScenarioError("scenario has no grid descriptor")
    base_seed = scenario.seed if seed is None else seed
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
                seed=base_seed + cell,
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
    seed: int | None = None,
) -> tuple[list[str], list[list]]:
    """Mean delivery latency per (topic, subscriber) under each policy; for scenarios without a grid."""
    means = []
    for policy in (policy_a, policy_b):
        result = simulate(replace(scenario, comm_mapping=None, policy=policy), platform, seed=seed)
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


def chain_relays(graph: ComputationGraph, chain: list[str], compute_us: dict[str, float]) -> tuple[dict[str, RelaySpec], str, str]:
    """Relay table for consecutive chain hops; returns (relays, first_topic, last_topic)."""
    if len(chain) < 2:
        raise ScenarioError("chain needs at least two nodes")
    hop_topics = []
    for a, b in zip(chain, chain[1:]):
        shared = [t for t in graph.topic_ids() if a in graph.publishers_of(t) and b in graph.subscribers_of(t)]
        if not shared:
            raise ScenarioError(f"no topic connects {a!r} to {b!r}")
        hop_topics.append(shared[0])
    relays = {}
    for i, node in enumerate(chain[1:-1], start=1):
        relays[node] = RelaySpec(
            in_topic=hop_topics[i - 1],
            out_topic=hop_topics[i],
            compute_us=compute_us.get(node, 0.0),
        )
    return relays, hop_topics[0], hop_topics[-1]


def run_chain_scenario(
    scenario: Scenario, platform: PlatformModel, chain: list[str], seed: int | None = None
) -> tuple[float, float]:
    """End-to-end chain latency over the scenario workload: (mean, stddev) in us."""
    if not chain:
        raise ScenarioError("chain needs at least one node")
    if len(chain) == 1:
        # degenerate chain: source and sink coincide, nothing traverses a topic
        return 0.0, 0.0
    compute = dict(scenario.compute_us)
    relays, first_topic, last_topic = chain_relays(scenario.graph, chain, compute)
    result = simulate(scenario, platform, seed=seed, relays=relays)
    t_pub: dict[int, int] = {}
    t_end: dict[int, int] = {}
    for d in result.deliveries:
        if d.topic == first_topic:
            t_pub.setdefault(d.seq, d.t_pub_ns)
        if d.topic == last_topic and d.subscriber == chain[-1]:
            t_end[d.seq] = d.t_deliver_ns
    lats = [(t_end[s] - t_pub[s]) / NS_PER_US for s in sorted(t_end) if s in t_pub]
    if not lats:
        raise ScenarioError("chain produced no end-to-end deliveries")
    mean = statistics.fmean(lats)
    stddev = statistics.stdev(lats) if len(lats) > 1 else 0.0
    return mean, stddev

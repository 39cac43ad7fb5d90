"""The scenario document: its types and reader, the star builders, and the workload and chain rules.

``check_workload``, ``check_timing`` and ``chain_relays`` state those rules
once, for documents and for scenarios built in code alike; each error is a
``ScenarioError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import graph as _graph, mapping as _mapping  # looked up per call, where perfbench's spans swap them
from .documents import DocumentError
from .graph import ComputationGraph, NodeMapping, Placement, TopicSpec
from .mapping import CommMapping, MappingPolicy, TopicImpl
from .platform_model import MAX_TIME_US, PlatformModel
from .timing import _us_to_ns

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
        mapping, _ = _mapping.map_communication(self.graph, self.node_mapping, policy, platform)
        return mapping


class ScenarioError(DocumentError):
    what = "scenario document"


_GRID_AND_CHAIN = "scenario: 'grid' and 'chain' exclude each other; a grid's star cells have no chain"


# the keys of a scenario document; ``node_mapping`` comes from the graph document
_SCENARIO_KEYS = tuple(key for key in Scenario.__dataclass_fields__ if key != "node_mapping")


def _item_numbers(i: int, fields: dict) -> tuple[int, float, int | None]:
    """Workload item ``i``'s count, period (as a float) and size, from its fields, range-checked."""
    size = fields.get("size_bytes")
    return (
        ScenarioError.integer(fields.get("count", WorkloadItem.count), ("workload[{}].count", i), 0),
        ScenarioError.number(fields.get("period_us", WorkloadItem.period_us), ("workload[{}].period_us", i), MAX_TIME_US),
        None if size is None else ScenarioError.size(size, ("workload[{}].size_bytes", i)),
    )


def _timing_numbers(jitter, compute: dict) -> tuple[float | None, tuple[tuple[str, float], ...]]:
    """The jitter and the per-node compute times, range-checked, the compute times sorted by node."""
    compute_us = tuple(
        sorted((k, ScenarioError.number(v, ("compute_us.{}", k), MAX_TIME_US)) for k, v in compute.items())
    )
    return None if jitter is None else ScenarioError.number(jitter, "jitter_pct", upper=1.0), compute_us


def check_timing(scenario: Scenario) -> None:
    """Check a scenario's compute times and jitter as the reader does.

    A scenario built in code skips the reader; a jitter of 1 or more, or a
    negative compute time, would run time backwards.
    """
    compute = dict(scenario.compute_us)
    ScenarioError.known_keys(compute, scenario.graph.nodes, "compute_us")
    _timing_numbers(scenario.jitter_pct, compute)


def check_workload(graph: ComputationGraph, workload: tuple[WorkloadItem, ...]) -> None:
    """Check each item's publisher, topic and publish edge against ``graph``, and its numbers as the reader does."""
    nodes, published = set(graph.nodes), set(graph.pub_edges)
    for i, item in enumerate(workload):
        if item.publisher not in nodes:
            raise ScenarioError(f"workload publisher {item.publisher!r} is not a graph node")
        graph.topic(item.topic)  # an unknown topic raises ``UnknownTopicError``
        if (item.publisher, item.topic) not in published:
            raise ScenarioError(f"workload: {item.publisher!r} does not publish topic {item.topic!r}")
        # items built in code skip the document reader's checks; a bad one runs time or seqs backwards
        _item_numbers(i, vars(item))


def scenario_from_json(text: str, base_dir) -> Scenario:
    """Parse and range-check a scenario document; the graph is a path relative to base_dir."""
    doc = ScenarioError.known_keys(ScenarioError.decode(text), _SCENARIO_KEYS, "scenario")
    if "grid" in doc and "chain" in doc:  # an empty chain too: the document holds both keys
        raise ScenarioError(_GRID_AND_CHAIN)
    graph, node_mapping = _graph.load_document(Path(base_dir) / ScenarioError.require(doc, "graph", "scenario", str))
    if node_mapping is None:
        raise ScenarioError(f"graph document {doc['graph']!r} has no node_mapping")

    workload = []
    for i, entry in enumerate(ScenarioError.typed(doc.get("workload", []), list, "workload")):
        where = f"workload[{i}]"
        ScenarioError.known_keys(ScenarioError.typed(entry, dict, where), WorkloadItem.__dataclass_fields__, where)
        workload.append(
            WorkloadItem(
                ScenarioError.require(entry, "publisher", where, str),
                ScenarioError.require(entry, "topic", where, str),
                *_item_numbers(i, entry),
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

    compute = ScenarioError.known_keys(
        ScenarioError.typed(doc.get("compute_us", {}), dict, "compute_us"), graph.nodes, "compute_us"
    )
    # only the types; ``chain_relays`` checks the chain against the graph when the scenario runs
    chain = ScenarioError.typed(doc.get("chain", []), list, "chain")
    seed = ScenarioError.integer(doc.get("seed", Scenario.seed), "seed", None)
    jitter_pct, compute_us = _timing_numbers(doc.get("jitter_pct"), compute)
    return Scenario(
        graph=graph,
        node_mapping=node_mapping,
        workload=tuple(workload),
        seed=seed,
        comm_mapping=comm_mapping,
        policy=policy,
        compute_us=compute_us,
        jitter_pct=jitter_pct,
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


# -- chains -------------------------------------------------------------------


class Relay(NamedTuple):
    """A chain hop: on delivery of ``in_topic``, compute for ``compute_ns``, then publish ``out_topic``."""

    in_topic: str
    out_topic: str
    compute_ns: int


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

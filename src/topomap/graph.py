"""Publish-subscribe computation graphs.

A computation graph is bipartite: nodes publish to topics and subscribe to
topics, never to each other directly.  Edges are therefore either publish
edges (node, topic) or subscribe edges (topic, node).  Every topic carries a
message size and a nominal publish rate so that mapping and simulation can
reason about transfer volume.

All collections are kept in lexicographic order by id; iteration order is
deterministic everywhere.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass, field

from .platform_model import MAX_SIZE_BYTES


class GraphError(ValueError):
    """Base class for graph document problems."""


class GraphSyntaxError(GraphError):
    """Document is not a valid graph document (bad JSON or wrong shape)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DuplicateIdError(GraphError):
    pass


class UnknownEndpointError(GraphError):
    """An edge references a node or topic that is not declared."""


class BadAnnotationError(GraphError):
    """Topic size/rate annotation out of range."""


class UnknownTopicError(KeyError):
    """Lookup of a topic id that is not in the graph."""

    def __str__(self):
        return f"unknown topic {self.args[0]!r}"


class DanglingTopicWarning(UserWarning):
    """Topic with no publishers or no subscribers."""


class Placement(enum.Enum):
    HW = "HW"
    SW = "SW"


@dataclass(frozen=True)
class TopicSpec:
    id: str
    message_size_bytes: int
    publish_rate_hz: float

    def __post_init__(self):
        size, rate = self.message_size_bytes, self.publish_rate_hz
        # bool is an int subclass and passes as neither a size nor a rate
        if isinstance(size, bool) or not isinstance(size, int) or not 0 < size < MAX_SIZE_BYTES:
            raise BadAnnotationError(
                f"topic {self.id!r}: message_size_bytes must be a positive integer "
                f"below {MAX_SIZE_BYTES}, got {size!r}"
            )
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 < rate < math.inf:
            raise BadAnnotationError(
                f"topic {self.id!r}: publish_rate_hz must be a positive finite number, got {rate!r}"
            )
        object.__setattr__(self, "publish_rate_hz", float(rate))


@dataclass(frozen=True)
class ComputationGraph:
    """Immutable bipartite pub-sub graph.

    ``pub_edges`` holds (node, topic) pairs, ``sub_edges`` holds
    (topic, node) pairs.  Construction validates endpoint existence,
    duplicate ids/edges and namespace disjointness, and warns once per
    dangling topic (a topic with no publishers or no subscribers).
    """

    nodes: tuple[str, ...]
    topics: tuple[TopicSpec, ...]
    pub_edges: tuple[tuple[str, str], ...]
    sub_edges: tuple[tuple[str, str], ...]
    _topic_index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "topics", tuple(sorted(self.topics, key=lambda t: t.id)))
        object.__setattr__(self, "pub_edges", tuple(sorted(self.pub_edges)))
        object.__setattr__(self, "sub_edges", tuple(sorted(self.sub_edges)))
        self._validate()
        object.__setattr__(self, "_topic_index", {t.id: t for t in self.topics})

    def _validate(self):
        node_set = set()
        for n in self.nodes:
            if n in node_set:
                raise DuplicateIdError(f"duplicate node id {n!r}")
            node_set.add(n)
        topic_set = set()
        for t in self.topics:
            if t.id in topic_set:
                raise DuplicateIdError(f"duplicate topic id {t.id!r}")
            topic_set.add(t.id)
        overlap = node_set & topic_set
        if overlap:
            raise DuplicateIdError(
                f"node and topic namespaces must be disjoint, shared ids: {sorted(overlap)}"
            )
        endpoint_topics = []
        for kind, edges in (("publish", self.pub_edges), ("subscribe", self.sub_edges)):
            seen, topics = set(), set()
            for edge in edges:
                node, topic = edge if kind == "publish" else edge[::-1]
                if node not in node_set:
                    raise UnknownEndpointError(f"{kind} edge {edge!r}: unknown node {node!r}")
                if topic not in topic_set:
                    raise UnknownEndpointError(f"{kind} edge {edge!r}: unknown topic {topic!r}")
                if edge in seen:
                    raise DuplicateIdError(f"duplicate {kind} edge {edge!r}")
                seen.add(edge)
                topics.add(topic)
            endpoint_topics.append(topics)
        published, subscribed = endpoint_topics
        for t in sorted(topic_set - (published & subscribed)):
            what = "subscribers" if t in published else "publishers" if t in subscribed else "endpoints"
            # _validate <- __post_init__ <- generated __init__ <- the constructing line
            warnings.warn(f"topic {t!r} has no {what}", DanglingTopicWarning, stacklevel=4)

    # -- lookups ---------------------------------------------------------

    def topic(self, topic_id: str) -> TopicSpec:
        try:
            return self._topic_index[topic_id]
        except KeyError:
            raise UnknownTopicError(topic_id) from None

    def topic_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.topics)

    def pub_edges_of(self, topic_id: str) -> tuple[tuple[str, str], ...]:
        """Publish edges of one topic, lexicographic by node id."""
        self.topic(topic_id)
        return tuple(e for e in self.pub_edges if e[1] == topic_id)

    def sub_edges_of(self, topic_id: str) -> tuple[tuple[str, str], ...]:
        """Subscribe edges of one topic, lexicographic by node id."""
        self.topic(topic_id)
        return tuple(e for e in self.sub_edges if e[0] == topic_id)

    def publishers_of(self, topic_id: str) -> tuple[str, ...]:
        return tuple(n for n, _ in self.pub_edges_of(topic_id))

    def subscribers_of(self, topic_id: str) -> tuple[str, ...]:
        return tuple(n for _, n in self.sub_edges_of(topic_id))


@dataclass(frozen=True)
class NodeMapping:
    """Total assignment of graph nodes to HW or SW."""

    placements: tuple[tuple[str, Placement], ...]

    def __post_init__(self):
        # sort on the node id alone; Placement members do not order
        object.__setattr__(
            self, "placements", tuple(sorted(self.placements, key=lambda item: item[0]))
        )
        seen = set()
        for node, placement in self.placements:
            if node in seen:
                raise DuplicateIdError(f"node {node!r} mapped twice")
            seen.add(node)
            if not isinstance(placement, Placement):
                raise BadAnnotationError(f"node {node!r}: placement must be HW or SW")

    @classmethod
    def from_dict(cls, d: dict) -> "NodeMapping":
        items = []
        for node, value in d.items():
            try:
                placement = Placement(value)
            except ValueError:
                raise BadAnnotationError(
                    f"node_mapping[{node!r}]: expected \"HW\" or \"SW\", got {value!r}"
                ) from None
            items.append((node, placement))
        return cls(tuple(items))

    def to_dict(self) -> dict:
        return {n: p.value for n, p in self.placements}

    def placement_of(self, node: str) -> Placement:
        for n, p in self.placements:
            if n == node:
                return p
        raise KeyError(node)

    def is_hw(self, node: str) -> bool:
        return self.placement_of(node) is Placement.HW

    def validate_against(self, graph: ComputationGraph):
        """Require the mapping to be total over graph nodes and name no strangers."""
        mapped = {n for n, _ in self.placements}
        missing = sorted(set(graph.nodes) - mapped)
        if missing:
            raise UnknownEndpointError(f"node_mapping missing nodes: {missing}")
        extra = sorted(mapped - set(graph.nodes))
        if extra:
            raise UnknownEndpointError(f"node_mapping names unknown nodes: {extra}")


# -- document io ---------------------------------------------------------


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise GraphSyntaxError(f"{where}: missing required key {key!r}")
    return obj[key]


def _id(entry: dict, key: str, where: str) -> str:
    value = _require(entry, key, where)
    if not isinstance(value, str):
        raise GraphSyntaxError(f"{where}.{key}: expected a string id, got {value!r}")
    return value


def _section(doc: dict, key: str) -> list:
    value = _require(doc, key, "graph document")
    if not isinstance(value, list):
        raise GraphSyntaxError(f"{key}: expected a list, got {type(value).__name__}")
    return value


def parse_document(text: str) -> tuple[ComputationGraph, NodeMapping | None]:
    """Parse a graph document; returns the graph and its optional node mapping."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise GraphSyntaxError("graph document must be a JSON object")

    raw_nodes = _section(doc, "nodes")
    raw_topics = _section(doc, "topics")
    raw_pubs = _section(doc, "publishes")
    raw_subs = _section(doc, "subscribes")

    nodes = []
    for i, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict) or "id" not in entry:
            raise GraphSyntaxError(f"nodes[{i}]: expected an object with an \"id\" key")
        nodes.append(_id(entry, "id", f"nodes[{i}]"))

    topics = []
    for i, entry in enumerate(raw_topics):
        if not isinstance(entry, dict):
            raise GraphSyntaxError(f"topics[{i}]: expected an object")
        tid = _id(entry, "id", f"topics[{i}]")
        size = _require(entry, "message_size_bytes", f"topics[{i}]")
        rate = _require(entry, "publish_rate_hz", f"topics[{i}]")
        topics.append(TopicSpec(tid, size, rate))

    pub_edges = []
    for i, entry in enumerate(raw_pubs):
        if not isinstance(entry, dict) or "node" not in entry or "topic" not in entry:
            raise GraphSyntaxError(f"publishes[{i}]: expected an object with \"node\" and \"topic\"")
        pub_edges.append((_id(entry, "node", f"publishes[{i}]"), _id(entry, "topic", f"publishes[{i}]")))

    sub_edges = []
    for i, entry in enumerate(raw_subs):
        if not isinstance(entry, dict) or "node" not in entry or "topic" not in entry:
            raise GraphSyntaxError(f"subscribes[{i}]: expected an object with \"topic\" and \"node\"")
        sub_edges.append((_id(entry, "topic", f"subscribes[{i}]"), _id(entry, "node", f"subscribes[{i}]")))

    graph = ComputationGraph(tuple(nodes), tuple(topics), tuple(pub_edges), tuple(sub_edges))

    node_mapping = None
    if "node_mapping" in doc:
        raw = doc["node_mapping"]
        if not isinstance(raw, dict):
            raise GraphSyntaxError("node_mapping: expected an object of node -> \"HW\"|\"SW\"")
        node_mapping = NodeMapping.from_dict(raw)
        node_mapping.validate_against(graph)
    return graph, node_mapping


def parse_graph(text: str) -> ComputationGraph:
    graph, _ = parse_document(text)
    return graph


def serialize_graph(graph: ComputationGraph, node_mapping: NodeMapping | None = None) -> str:
    """Canonical JSON text; parse_document(serialize_graph(g)) round-trips."""
    doc = {
        "nodes": [{"id": n} for n in graph.nodes],
        "topics": [
            {"id": t.id, "message_size_bytes": t.message_size_bytes, "publish_rate_hz": t.publish_rate_hz}
            for t in graph.topics
        ],
        "publishes": [{"node": n, "topic": t} for n, t in graph.pub_edges],
        "subscribes": [{"topic": t, "node": n} for t, n in graph.sub_edges],
    }
    if node_mapping is not None:
        doc["node_mapping"] = node_mapping.to_dict()
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_document(path) -> tuple[ComputationGraph, NodeMapping | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())

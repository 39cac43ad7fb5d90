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
import warnings
from dataclasses import dataclass, field

from .documents import DocumentError, FieldError


class GraphError(FieldError):
    """Base class for graph document problems."""


class GraphSyntaxError(GraphError, DocumentError):
    """Document is not a valid graph document (bad JSON or wrong shape)."""

    what = "graph document"


class DuplicateIdError(GraphError):
    pass


class UnknownEndpointError(GraphError):
    """An edge references a node or topic that is not declared."""


class BadAnnotationError(GraphError):
    """A topic's size or rate, or a node's placement, out of range."""


class UnknownTopicError(GraphError):
    """Lookup of a topic id that is not in the graph."""


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
        BadAnnotationError.size(self.message_size_bytes, ("topic {!r}: message_size_bytes", self.id))
        rate = BadAnnotationError.number(self.publish_rate_hz, ("topic {!r}: publish_rate_hz", self.id), positive=True)
        if rate is not self.publish_rate_hz:  # an integer rate is stored as its float
            object.__setattr__(self, "publish_rate_hz", rate)


def gateway_ids(topic_id: str) -> tuple[str, str]:
    """A topic's gateway endpoint ids on the SMT side and on the HMT side."""
    return f"gw.{topic_id}", f"gw.{topic_id}.hmt"


@dataclass(frozen=True)
class ComputationGraph:
    """Immutable bipartite pub-sub graph.

    ``pub_edges`` holds (node, topic) pairs, ``sub_edges`` holds
    (topic, node) pairs.  Construction validates endpoint existence,
    duplicate ids/edges and namespace disjointness (no node holds a topic
    id or a topic's gateway id, which would pass the node's messages off
    as the gateway's own loop-back), and warns once per
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
        overlap = node_set.intersection(gw_id for t in topic_set for gw_id in gateway_ids(t))
        if overlap:
            raise DuplicateIdError(f"node ids must not be a topic's gateway ids, shared ids: {sorted(overlap)}")
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
            raise UnknownTopicError(f"unknown topic {topic_id!r}") from None

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
        # sort on the node id alone, as Placement members do not order; a member
        # skips the check, which costs an enum call and a formatted name per node
        check = BadAnnotationError.member
        placements = tuple(
            (n, p if p.__class__ is Placement else check(p, f"node_mapping.{n} placement", Placement))
            for n, p in sorted(self.placements, key=lambda item: item[0])
        )
        object.__setattr__(self, "placements", placements)
        seen = set()
        for node, _ in self.placements:
            if node in seen:
                raise DuplicateIdError(f"node {node!r} mapped twice")
            seen.add(node)

    @classmethod
    def from_dict(cls, d: dict) -> "NodeMapping":
        """A mapping from ``{node: "HW" | "SW"}``."""
        return cls(tuple(d.items()))

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


def _objects(doc: dict, section: str, ids: tuple[str, ...]):
    """``(where, entry)`` for each object listed under ``doc[section]``, whose ``ids`` keys must hold strings."""
    for i, entry in enumerate(GraphSyntaxError.require(doc, section, "graph document", list)):
        where = f"{section}[{i}]"
        GraphSyntaxError.typed(entry, dict, where)
        for key in ids:
            GraphSyntaxError.require(entry, key, where, str)
        yield where, entry


def parse_document(text: str) -> tuple[ComputationGraph, NodeMapping | None]:
    """Parse a graph document; returns the graph and its optional node mapping."""
    doc = GraphSyntaxError.decode(text)
    nodes = [entry["id"] for _, entry in _objects(doc, "nodes", ("id",))]
    topics = [
        TopicSpec(
            entry["id"],
            GraphSyntaxError.require(entry, "message_size_bytes", where),
            GraphSyntaxError.require(entry, "publish_rate_hz", where),
        )
        for where, entry in _objects(doc, "topics", ("id",))
    ]
    pub_edges = [(e["node"], e["topic"]) for _, e in _objects(doc, "publishes", ("node", "topic"))]
    sub_edges = [(e["topic"], e["node"]) for _, e in _objects(doc, "subscribes", ("topic", "node"))]
    graph = ComputationGraph(tuple(nodes), tuple(topics), tuple(pub_edges), tuple(sub_edges))

    node_mapping = None
    if "node_mapping" in doc:
        node_mapping = NodeMapping.from_dict(GraphSyntaxError.typed(doc["node_mapping"], dict, "node_mapping"))
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
    return GraphSyntaxError.load(path, parse_document)

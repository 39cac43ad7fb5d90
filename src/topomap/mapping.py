"""Communication mapping: assign each topic a transport implementation.

Topics are classified by where their endpoints run.  A topic whose
publishers and subscribers are all software nodes stays on the software
transport (SMT); all-hardware topics use the hardware transport (HMT);
mixed topics either stay on SMT, with hardware endpoints reached through
per-node delegates, or get a gateway (GW) that bridges the two transports.
Which of the two a mixed topic gets is the policy's call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graph import ComputationGraph, NodeMapping
from .platform_model import PlatformModel
from .timing import NS_PER_US, predict_latency_ns
from .topics import MappingError, TopicClass, TopicEndpoints, TopicImpl, topic_endpoints


class MappingPolicy(enum.Enum):
    # value strings double as the CLI spelling
    COST = "cost"
    ALWAYS_GW_IF_MULTI_HW_SUB = "multi-hw-sub"
    ALWAYS_SMT = "smt"


def classify_topic(graph: ComputationGraph, node_mapping: NodeMapping, topic_id: str) -> TopicClass:
    """Classify one topic by the placement of its endpoint set."""
    return topic_endpoints(graph, node_mapping, topic_id).topic_class


def check_topic_set(graph: ComputationGraph, comm_mapping: CommMapping) -> None:
    """Require ``comm_mapping`` to name exactly the graph's topics."""
    topics, mapped = set(graph.topic_ids()), set(comm_mapping.to_dict())
    if topics != mapped:
        raise MappingError(
            "comm_mapping must name exactly the graph's topics: "
            f"missing {sorted(topics - mapped)}, unknown {sorted(mapped - topics)}"
        )


@dataclass(frozen=True)
class CommMapping:
    assignments: tuple[tuple[str, TopicImpl], ...]

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(sorted(self.assignments)))

    def impl_of(self, topic_id: str) -> TopicImpl:
        for t, impl in self.assignments:
            if t == topic_id:
                return impl
        raise KeyError(topic_id)

    def to_dict(self) -> dict:
        return {t: impl.value for t, impl in self.assignments}

    @classmethod
    def from_dict(cls, d: dict) -> "CommMapping":
        return cls(tuple((t, MappingError.member(v, ("comm_mapping.{} transport", t), TopicImpl)) for t, v in d.items()))


def cost_params_from_platform(platform: PlatformModel) -> PlatformModel:
    """``platform`` itself; only the benchmark's regret cell calls it, until it uses ``Scenario.resolve_mapping``."""
    return platform


def _worst_latency_ns(endpoints: TopicEndpoints, impl: TopicImpl, size_bytes: int, platform: PlatformModel) -> int:
    """The worst subscriber's predicted latency over all the topic's publishers."""
    pubs = endpoints.hw_pubs + endpoints.sw_pubs
    by_pub = (predict_latency_ns(endpoints, pub, impl, size_bytes, platform) for pub in pubs)
    return max((ns for latency in by_pub for ns in latency.values()), default=0)


def map_communication(
    graph: ComputationGraph,
    node_mapping: NodeMapping,
    policy: MappingPolicy,
    platform: PlatformModel | None = None,
) -> tuple[CommMapping, dict[str, str]]:
    """Assign an implementation to every topic and say why.

    ALL_SW topics always stay on SMT.  ALL_HW topics go to HMT under the
    classifying policies; the ALWAYS_SMT baseline leaves literally every
    topic on the software transport, which is what an unmapped system
    does.  Only MIXED topics genuinely consult the policy.  A topic with
    no endpoints has no class and stays on SMT, the only transport
    ``TopicEndpoints.check`` allows it.  COST prices MIXED topics on
    ``platform`` (None: the default one) and takes GW only if strictly faster.
    """
    node_mapping.validate_against(graph)
    platform = platform or PlatformModel()
    assignments = []
    rationales = {}
    for topic_id in graph.topic_ids():
        endpoints = topic_endpoints(graph, node_mapping, topic_id)
        if not endpoints.has_endpoints:
            assignments.append((topic_id, TopicImpl.SMT))
            rationales[topic_id] = "no endpoints: nothing publishes or subscribes, so it stays on SMT"
            continue
        cls = endpoints.topic_class
        k = len(endpoints.hw_subs)
        if policy is MappingPolicy.ALWAYS_SMT:
            impl = TopicImpl.SMT
            why = "baseline keeps every topic on the software transport"
        elif cls is TopicClass.ALL_SW:
            impl = TopicImpl.SMT
            why = "all endpoints are software nodes"
        elif cls is TopicClass.ALL_HW:
            impl = TopicImpl.HMT
            why = "all endpoints are hardware nodes"
        elif policy is MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB:
            if k >= 2:
                impl = TopicImpl.GW
                why = f"mixed endpoints with {k} hardware subscribers, gateway amortizes the transfer"
            else:
                impl = TopicImpl.SMT
                why = f"mixed endpoints with {k} hardware subscriber(s), below the gateway threshold"
        elif policy is MappingPolicy.COST and not endpoints.hw_pubs + endpoints.sw_pubs:
            impl = TopicImpl.SMT
            why = "no publishers, so no message to price; stays on SMT"
        elif policy is MappingPolicy.COST:
            size = graph.topic(topic_id).message_size_bytes
            smt = _worst_latency_ns(endpoints, TopicImpl.SMT, size, platform)
            gw = _worst_latency_ns(endpoints, TopicImpl.GW, size, platform)
            smt_us, gw_us = f"{smt / NS_PER_US:.3f}us", f"{gw / NS_PER_US:.3f}us"
            if gw < smt:
                impl = TopicImpl.GW
                why = f"predicted gateway latency {gw_us} beats software transport {smt_us}"
            else:
                impl = TopicImpl.SMT
                why = f"predicted software transport latency {smt_us} within gateway latency {gw_us}"
        else:  # pragma: no cover - enum is closed
            raise MappingError(f"unhandled policy {policy!r}")
        assignments.append((topic_id, impl))
        rationales[topic_id] = f"{cls.value}: {why}"
    return CommMapping(tuple(assignments)), rationales


def count_boundary_crossings(
    graph: ComputationGraph, node_mapping: NodeMapping, comm_mapping: CommMapping
) -> int:
    """Edges crossing the hardware/software boundary; rejects what the simulator rejects."""
    check_topic_set(graph, comm_mapping)
    return sum(
        topic_endpoints(graph, node_mapping, t).crossings(comm_mapping.impl_of(t)) for t in graph.topic_ids()
    )


def classification_mapping(graph: ComputationGraph, node_mapping: NodeMapping) -> CommMapping:
    """Classification alone: ALL_HW topics to HMT, everything else, endpointless topics too, on SMT."""
    assignments = []
    for t in graph.topic_ids():
        endpoints = topic_endpoints(graph, node_mapping, t)
        all_hw = endpoints.has_endpoints and endpoints.topic_class is TopicClass.ALL_HW
        assignments.append((t, TopicImpl.HMT if all_hw else TopicImpl.SMT))
    return CommMapping(tuple(assignments))


def mapping_report(
    graph: ComputationGraph,
    node_mapping: NodeMapping,
    comm_mapping: CommMapping,
    rationales: dict[str, str],
) -> dict:
    """Result document for the map command, JSON-serializable."""
    all_smt = CommMapping(tuple((t, TopicImpl.SMT) for t in graph.topic_ids()))
    classified = classification_mapping(graph, node_mapping)
    return {
        "comm_mapping": comm_mapping.to_dict(),
        "rationales": dict(sorted(rationales.items())),
        "boundary_crossings": count_boundary_crossings(graph, node_mapping, comm_mapping),
        "boundary_crossings_baseline_all_smt": count_boundary_crossings(graph, node_mapping, all_smt),
        "boundary_crossings_classified_smt_hmt": count_boundary_crossings(graph, node_mapping, classified),
    }

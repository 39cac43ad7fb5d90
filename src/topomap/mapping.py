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
from dataclasses import dataclass, fields

from .graph import ComputationGraph, NodeMapping
from .platform_model import PlatformModel


class MappingError(ValueError):
    """Inconsistent communication mapping for a given graph and placement."""


class TopicClass(enum.Enum):
    ALL_SW = "ALL_SW"
    ALL_HW = "ALL_HW"
    MIXED = "MIXED"


class TopicImpl(enum.Enum):
    SMT = "SMT"
    HMT = "HMT"
    GW = "GW"


class MappingPolicy(enum.Enum):
    # value strings double as the CLI spelling
    COST = "cost"
    ALWAYS_GW_IF_MULTI_HW_SUB = "multi-hw-sub"
    ALWAYS_SMT = "smt"


@dataclass(frozen=True)
class CostModelParams:
    """The estimator's view of a platform, all times in microseconds.

    Bandwidths are in bytes per microsecond.  ``sw_dds_intercept_us`` and
    ``sw_dds_us_per_byte`` form the affine latency of a software-side
    delivery; the same leg appears in both estimators and therefore never
    decides between them, but keeping it makes the estimates end-to-end.
    It has no numbers of its own: ``cost_params_from_platform`` derives it.
    """

    delegate_roundtrip_us: float
    gateway_fixed_overhead_us: float
    memif_bandwidth_bytes_per_us: float
    hmt_bandwidth_bytes_per_us: float
    sw_dds_intercept_us: float
    sw_dds_us_per_byte: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")
        if self.hmt_bandwidth_bytes_per_us < self.memif_bandwidth_bytes_per_us:
            raise ValueError("hmt bandwidth must be at least memif bandwidth")

    def sw_dds_latency_us(self, size_bytes: int) -> float:
        return self.sw_dds_intercept_us + self.sw_dds_us_per_byte * size_bytes


def cost_params_from_platform(platform: PlatformModel) -> CostModelParams:
    """Derive the cost model from the platform's timing parameters.

    The delegate round trip is one OSIF round trip plus the delegate
    publish; the gateway's fixed overhead doubles that, covering the
    cancellable-read detour on ingest plus the publish-side round trip.
    """
    roundtrip = platform.osif_roundtrip_us + platform.delegate_publish_us
    return CostModelParams(
        delegate_roundtrip_us=roundtrip,
        gateway_fixed_overhead_us=2.0 * roundtrip,
        memif_bandwidth_bytes_per_us=platform.memif_bandwidth_bytes_per_s / 1e6,
        hmt_bandwidth_bytes_per_us=platform.hmt_bandwidth_bytes_per_s / 1e6,
        sw_dds_intercept_us=platform.sw_dds_intercept_us,
        sw_dds_us_per_byte=platform.sw_dds_us_per_byte,
    )


@dataclass(frozen=True)
class TopicEndpoints:
    """One topic's publishers and subscribers split by placement, in node-id order.

    The only HW/SW split of a topic: the mapper, the crossing count and the
    simulator's routes all read it.  A node on both sides appears in both.
    """

    topic_id: str
    hw_pubs: tuple[str, ...]
    sw_pubs: tuple[str, ...]
    hw_subs: tuple[str, ...]
    sw_subs: tuple[str, ...]

    @property
    def has_endpoints(self) -> bool:
        return bool(self.hw_pubs or self.sw_pubs or self.hw_subs or self.sw_subs)

    @property
    def topic_class(self) -> TopicClass:
        if not self.has_endpoints:
            raise MappingError(f"topic {self.topic_id!r} has no endpoints to classify")
        hw, sw = self.hw_pubs + self.hw_subs, self.sw_pubs + self.sw_subs
        return TopicClass.MIXED if hw and sw else TopicClass.ALL_HW if hw else TopicClass.ALL_SW

    def check(self, impl: TopicImpl) -> None:
        """The legality rule: SMT always, HMT only for ALL_HW endpoints, GW only for MIXED ones."""
        if impl is TopicImpl.HMT and self.topic_class is not TopicClass.ALL_HW:
            sw = sorted(set(self.sw_pubs + self.sw_subs))
            raise MappingError(f"topic {self.topic_id!r} is mapped to HMT but has software endpoints: {sw}")
        if impl is TopicImpl.GW and self.topic_class is not TopicClass.MIXED:
            raise MappingError(f"topic {self.topic_id!r}: a gateway only makes sense for mixed endpoints")

    def crossings(self, impl: TopicImpl) -> int:
        """Edges crossing the HW/SW boundary: SMT's hardware edges, GW's software edges, none on HMT."""
        self.check(impl)
        if impl is TopicImpl.SMT:
            return len(self.hw_pubs + self.hw_subs)
        if impl is TopicImpl.GW:
            return len(self.sw_pubs + self.sw_subs)
        return 0


def topic_endpoints(graph: ComputationGraph, node_mapping: NodeMapping, topic_id: str) -> TopicEndpoints:
    """Split one topic's publishers and subscribers by placement."""
    pubs, subs = graph.publishers_of(topic_id), graph.subscribers_of(topic_id)
    hw = {n for n in set(pubs) | set(subs) if node_mapping.is_hw(n)}
    return TopicEndpoints(
        topic_id,
        hw_pubs=tuple(n for n in pubs if n in hw),
        sw_pubs=tuple(n for n in pubs if n not in hw),
        hw_subs=tuple(n for n in subs if n in hw),
        sw_subs=tuple(n for n in subs if n not in hw),
    )


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


def estimate_smt_cost_us(size_bytes: int, hw_sub_count: int, params: CostModelParams) -> float:
    """Cost of serving a mixed topic over SMT with hardware delegates.

    Each of the ``hw_sub_count`` hardware subscribers pulls its own copy
    across the shared-memory interface.
    """
    if hw_sub_count < 1:
        raise MappingError("SMT-vs-GW estimate is only defined for topics with hardware subscribers")
    return (
        params.delegate_roundtrip_us
        + size_bytes * hw_sub_count / params.memif_bandwidth_bytes_per_us
        + params.sw_dds_latency_us(size_bytes)
    )


def estimate_gw_cost_us(size_bytes: int, hw_sub_count: int, params: CostModelParams) -> float:
    """Cost of serving a mixed topic through a gateway.

    The payload crosses the shared-memory interface once and is then
    streamed on the hardware transport, which fans out to any number of
    hardware subscribers at no extra per-subscriber transfer cost.
    """
    if hw_sub_count < 1:
        raise MappingError("SMT-vs-GW estimate is only defined for topics with hardware subscribers")
    return (
        params.gateway_fixed_overhead_us
        + size_bytes / params.memif_bandwidth_bytes_per_us
        + size_bytes / params.hmt_bandwidth_bytes_per_us
        + params.sw_dds_latency_us(size_bytes)
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
        try:
            return cls(tuple((t, TopicImpl(v)) for t, v in d.items()))
        except ValueError as exc:
            raise MappingError(f"bad comm_mapping entry: {exc}") from None


def map_communication(
    graph: ComputationGraph,
    node_mapping: NodeMapping,
    policy: MappingPolicy,
    cost_params: CostModelParams | None = None,
) -> tuple[CommMapping, dict[str, str]]:
    """Assign an implementation to every topic and say why.

    ALL_SW topics always stay on SMT.  ALL_HW topics go to HMT under the
    classifying policies; the ALWAYS_SMT baseline leaves literally every
    topic on the software transport, which is what an unmapped system
    does.  Only MIXED topics genuinely consult the policy.  A topic with
    no endpoints has no class and stays on SMT, the only transport
    ``TopicEndpoints.check`` allows it.  Without ``cost_params`` the COST
    policy derives them from the default platform.
    """
    node_mapping.validate_against(graph)
    if cost_params is None and policy is MappingPolicy.COST:
        cost_params = cost_params_from_platform(PlatformModel())
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
        elif policy is MappingPolicy.COST:
            size = graph.topic(topic_id).message_size_bytes
            if k == 0:
                # mixed only through a hardware publisher; nothing to amortize
                impl = TopicImpl.SMT
                why = "no hardware subscribers, a gateway has nothing to amortize"
            else:
                smt = estimate_smt_cost_us(size, k, cost_params)
                gw = estimate_gw_cost_us(size, k, cost_params)
                if gw < smt:
                    impl = TopicImpl.GW
                    why = f"estimated gateway cost {gw:.2f}us beats software transport {smt:.2f}us"
                else:
                    impl = TopicImpl.SMT
                    why = f"estimated software transport cost {smt:.2f}us within gateway cost {gw:.2f}us"
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

"""Topic classes, transports and endpoint splits: the vocabulary that
``topomap.timing`` and ``topomap.mapping``, which prices with the timing
model, share without an import cycle."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .documents import FieldError
from .graph import ComputationGraph, NodeMapping


class MappingError(FieldError):
    """Inconsistent communication mapping for a given graph and placement."""


class TopicClass(enum.Enum):
    ALL_SW = "ALL_SW"
    ALL_HW = "ALL_HW"
    MIXED = "MIXED"


class TopicImpl(enum.Enum):
    SMT = "SMT"
    HMT = "HMT"
    GW = "GW"


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

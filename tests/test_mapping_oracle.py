"""The ``cost`` policy checked against the simulator it prices with, on whole random graphs.

``cost`` gives each MIXED topic the transport whose worst predicted
(publisher, subscriber) latency is smaller, SMT on a tie.  When each
publisher's message runs alone, at jitter 0, a delivery depends only on
its own topic's transport, so the whole-graph optimum of that worst pair
is the per-topic one.  Here every publisher of every MIXED topic sends one
message alone, once with the topic on SMT and once on GW, while the other
topics stay idle, and ``cost``'s pick must be the transport whose worst
simulated latency is smaller, to the nanosecond.
"""

import random

import pytest

from topomap.graph import ComputationGraph, NodeMapping, Placement, TopicSpec
from topomap.mapping import CommMapping, MappingPolicy, TopicImpl, map_communication
from topomap.platform_model import PlatformModel
from topomap.scenario import Scenario, WorkloadItem
from topomap.simulator import simulate

PLATFORM = PlatformModel()
SEEDS = range(16)


def random_graph(seed: int) -> tuple[ComputationGraph, NodeMapping]:
    """Up to 16 nodes and 7 topics, each MIXED, of 1-128 kB, with 1-3 publishers and at least one subscriber."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(6, 16))]
    placement = {n: rng.choice(list(Placement)) for n in nodes}
    placement[nodes[0]], placement[nodes[1]] = Placement.HW, Placement.SW  # so a MIXED topic can be drawn
    topics, pub_edges, sub_edges = [], [], []
    for k in range(rng.randint(3, 7)):
        endpoints = []
        while len({placement[n] for n in endpoints}) < 2:
            endpoints = rng.sample(nodes, rng.randint(2, min(8, len(nodes))))
        n_pubs = rng.randint(1, min(3, len(endpoints) - 1))
        topics.append(TopicSpec(f"t{k}", rng.randint(1_000, 128_000), 30.0))
        pub_edges += [(n, f"t{k}") for n in endpoints[:n_pubs]]
        sub_edges += [(f"t{k}", n) for n in endpoints[n_pubs:]]
    graph = ComputationGraph(tuple(nodes), tuple(topics), tuple(pub_edges), tuple(sub_edges))
    return graph, NodeMapping(tuple(placement.items()))


def simulated_worst_ns(graph, node_mapping, mapping: CommMapping, topic: str, impl: TopicImpl) -> int:
    """The worst (publisher, subscriber) latency of ``topic`` on ``impl``, each publisher's message alone."""
    mapping = CommMapping(tuple((t, impl if t == topic else i) for t, i in mapping.assignments))
    worst = 0
    for publisher in graph.publishers_of(topic):
        scn = Scenario(graph, node_mapping, (WorkloadItem(publisher, topic),), comm_mapping=mapping, jitter_pct=0.0)
        deliveries = simulate(scn, PLATFORM).deliveries
        assert {d.subscriber for d in deliveries} == set(graph.subscribers_of(topic))
        worst = max(worst, *(d.t_deliver_ns - d.t_pub_ns for d in deliveries))
    return worst


@pytest.mark.parametrize("seed", SEEDS)
def test_cost_picks_the_transport_with_the_smaller_simulated_worst_latency(seed):
    graph, node_mapping = random_graph(seed)
    mapping, _ = map_communication(graph, node_mapping, MappingPolicy.COST, PLATFORM)
    for topic in graph.topic_ids():
        smt, gw = (
            simulated_worst_ns(graph, node_mapping, mapping, topic, impl) for impl in (TopicImpl.SMT, TopicImpl.GW)
        )
        assert mapping.impl_of(topic) is (TopicImpl.GW if gw < smt else TopicImpl.SMT), (topic, smt, gw)


def test_the_oracle_graphs_make_both_picks():
    # an oracle whose graphs all take one transport would not test the comparison
    picks = set()
    for seed in SEEDS:
        graph, node_mapping = random_graph(seed)
        picks.update(map_communication(graph, node_mapping, MappingPolicy.COST, PLATFORM)[0].to_dict().values())
    assert picks == {"SMT", "GW"}

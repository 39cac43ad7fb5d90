"""Engine invariants, the latency model's exactness, and answers that do not
depend on node names, on small random pub-sub graphs.

Graphs have up to six nodes and four topics; nodes may publish several
topics and subscribe to their own.  Each topic gets a random transport
that is valid for its endpoints: HMT only when every endpoint is
hardware, GW only when the endpoints are mixed, SMT always.
"""

import dataclasses
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from topomap.graph import ComputationGraph, DanglingTopicWarning, NodeMapping, Placement, TopicSpec
from topomap.mapping import CommMapping, MappingPolicy, TopicImpl, map_communication, topic_endpoints
from topomap.platform_model import PlatformModel
from topomap.scenario import Scenario, WorkloadItem
from topomap.simulator import simulate, trace_to_csv
from topomap.timing import predict_latency_ns

PLATFORM = PlatformModel()


@st.composite
def scenarios(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 6)))]
    placement = {n: draw(st.sampled_from(Placement)) for n in nodes}
    topics, pub_edges, sub_edges, assignments, workload = [], [], [], [], []
    for k in range(draw(st.integers(1, 4))):
        tid = f"t{k}"
        publishers = draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=3))
        subscribers = draw(st.sets(st.sampled_from(nodes), max_size=len(nodes)))
        topics.append(TopicSpec(tid, draw(st.integers(1, 200_000)), 100.0))
        pub_edges += [(n, tid) for n in publishers]
        sub_edges += [(tid, n) for n in subscribers]
        sides = {placement[n] for n in publishers | subscribers}
        allowed = [TopicImpl.SMT]
        if sides == {Placement.HW}:
            allowed.append(TopicImpl.HMT)
        if len(sides) == 2:
            allowed.append(TopicImpl.GW)
        assignments.append((tid, draw(st.sampled_from(allowed))))
        for n in sorted(publishers):
            workload.append(
                WorkloadItem(
                    n,
                    tid,
                    count=draw(st.integers(0, 3)),
                    period_us=draw(st.sampled_from([0.0, 50.0, 400.0, 5_000.0])),
                    size_bytes=draw(st.none() | st.integers(1, 200_000)),
                )
            )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingTopicWarning)
        graph = ComputationGraph(tuple(nodes), tuple(topics), tuple(pub_edges), tuple(sub_edges))
    return Scenario(
        graph=graph,
        node_mapping=NodeMapping(tuple(placement.items())),
        workload=tuple(draw(st.permutations(workload))),
        seed=draw(st.integers(0, 2**32 - 1)),
        comm_mapping=CommMapping(tuple(assignments)),
        jitter_pct=draw(st.sampled_from([0.0, 0.05, 0.3, 0.99])),
    )


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_engine_invariants_on_random_graphs(scenario):
    result = simulate(scenario, PLATFORM)

    # exactly once per (topic, seq, subscriber)
    published: dict[str, int] = {}
    for item in scenario.workload:
        published[item.topic] = published.get(item.topic, 0) + item.count
    expected = sorted(
        (topic, seq, sub)
        for topic, sub in scenario.graph.sub_edges
        for seq in range(published.get(topic, 0))
    )
    assert sorted((d.topic, d.seq, d.subscriber) for d in result.deliveries) == expected

    assert all(d.t_deliver_ns >= d.t_pub_ns for d in result.deliveries)
    times = [ev.t_ns for ev in result.trace]
    assert times == sorted(times)

    bps = PLATFORM.memif_bandwidth_bytes_per_s
    for t0, t1, _, nbytes in result.memif_segments:
        assert nbytes <= (t1 - t0) * bps / 1e9 * (1 + 1e-9)

    assert trace_to_csv(simulate(scenario, PLATFORM)) == trace_to_csv(result)


@given(scenarios(), st.data())
@settings(max_examples=200, deadline=None)
def test_model_equals_engine_on_random_graphs(scenario, data):
    # one message from one of a topic's publishers, alone in the graph
    item = dataclasses.replace(data.draw(st.sampled_from(scenario.workload)), count=1)
    scenario = dataclasses.replace(scenario, workload=(item,), jitter_pct=0.0)
    size = item.size_bytes or scenario.graph.topic(item.topic).message_size_bytes
    endpoints = topic_endpoints(scenario.graph, scenario.node_mapping, item.topic)
    impl = scenario.comm_mapping.impl_of(item.topic)

    predicted = predict_latency_ns(endpoints, item.publisher, impl, size, PLATFORM)
    result = simulate(scenario, PLATFORM)
    assert {d.subscriber: d.t_deliver_ns - d.t_pub_ns for d in result.deliveries} == predicted


def _renamed(scenario: Scenario, names: dict[str, str]) -> Scenario:
    """``scenario`` with every node id replaced through ``names``."""
    g = scenario.graph
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingTopicWarning)
        graph = ComputationGraph(
            tuple(names[n] for n in g.nodes),
            g.topics,
            tuple((names[n], t) for n, t in g.pub_edges),
            tuple((t, names[n]) for t, n in g.sub_edges),
        )
    return dataclasses.replace(
        scenario,
        graph=graph,
        node_mapping=NodeMapping(tuple((names[n], p) for n, p in scenario.node_mapping.placements)),
        workload=tuple(dataclasses.replace(item, publisher=names[item.publisher]) for item in scenario.workload),
    )


def _latencies(scenario: Scenario) -> dict:
    """Each (topic, subscriber placement)'s latencies in a run, sorted."""
    placement = dict(scenario.node_mapping.placements)
    out: dict[tuple, list[int]] = {}
    for d in simulate(scenario, PLATFORM).deliveries:
        out.setdefault((d.topic, placement[d.subscriber]), []).append(d.t_deliver_ns - d.t_pub_ns)
    return {key: sorted(latencies) for key, latencies in out.items()}


@given(scenarios(), st.data())
@settings(max_examples=200, deadline=None)
def test_renaming_nodes_within_their_side_changes_no_answer(scenario, data):
    # a bijection within the HW nodes and within the SW nodes keeps every placement
    names = {}
    for side in Placement:
        nodes = [n for n, p in scenario.node_mapping.placements if p is side]
        names.update(zip(nodes, data.draw(st.permutations(nodes))))
    scenario = dataclasses.replace(scenario, jitter_pct=0.0)
    renamed = _renamed(scenario, names)

    for policy in MappingPolicy:
        picks = [map_communication(s.graph, s.node_mapping, policy, PLATFORM)[0] for s in (scenario, renamed)]
        assert picks[0] == picks[1], policy
    assert _latencies(renamed) == _latencies(scenario)

"""Topic classification, mapping policies, cost picks, crossings."""

import random

import pytest

from topomap.graph import ComputationGraph, DanglingTopicWarning, NodeMapping, Placement, TopicSpec
from topomap.mapping import (
    CommMapping,
    MappingError,
    MappingPolicy,
    TopicClass,
    TopicImpl,
    classification_mapping,
    classify_topic,
    count_boundary_crossings,
    map_communication,
    mapping_report,
    topic_endpoints,
)
from topomap.graph import parse_document
from topomap.platform_model import PlatformModel

# HMT four times as fast as MEMIF: one MEMIF crossing per message can pay for a gateway
FAST_HMT = PlatformModel(hmt_bandwidth_bytes_per_s=4.8e9)


def tiny(pub_kind, sub_kinds):
    """One topic, one publisher, len(sub_kinds) subscribers."""
    nodes = ["p"] + [f"s{i}" for i in range(len(sub_kinds))]
    placements = {"p": pub_kind}
    for i, kind in enumerate(sub_kinds):
        placements[f"s{i}"] = kind
    graph = ComputationGraph(
        nodes=tuple(nodes),
        topics=(TopicSpec("t", 1000, 10.0),),
        pub_edges=(("p", "t"),),
        sub_edges=tuple(("t", n) for n in nodes[1:]),
    )
    return graph, NodeMapping(tuple(placements.items()))


HW, SW = Placement.HW, Placement.SW


class TestClassification:
    def test_all_sw(self):
        g, nm = tiny(SW, [SW, SW])
        assert classify_topic(g, nm, "t") is TopicClass.ALL_SW

    def test_all_hw(self):
        g, nm = tiny(HW, [HW])
        assert classify_topic(g, nm, "t") is TopicClass.ALL_HW

    def test_mixed_by_publisher(self):
        g, nm = tiny(HW, [SW])
        assert classify_topic(g, nm, "t") is TopicClass.MIXED

    def test_mixed_by_subscriber(self):
        g, nm = tiny(SW, [SW, HW])
        assert classify_topic(g, nm, "t") is TopicClass.MIXED

    def test_self_subscribing_publisher_counts_once(self):
        graph = ComputationGraph(
            nodes=("p",),
            topics=(TopicSpec("t", 10, 1.0),),
            pub_edges=(("p", "t"),),
            sub_edges=(("t", "p"),),
        )
        nm = NodeMapping((("p", HW),))
        assert classify_topic(graph, nm, "t") is TopicClass.ALL_HW

    def test_hw_subscriber_count(self):
        g, nm = tiny(SW, [HW, HW, SW])
        assert topic_endpoints(g, nm, "t").hw_subs == ("s0", "s1")


class TestPolicies:
    def test_reference_mapping_multi_hw_sub(self, reference_doc):
        graph, nm = parse_document(reference_doc)
        cm, rationales = map_communication(graph, nm, MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB)
        assert cm.to_dict() == {"A": "GW", "B": "HMT", "C": "GW", "D": "SMT", "E": "GW"}
        assert set(rationales) == {"A", "B", "C", "D", "E"}
        assert rationales["B"].startswith("ALL_HW")

    def test_baseline_policy_is_literal(self, reference_doc):
        graph, nm = parse_document(reference_doc)
        cm, _ = map_communication(graph, nm, MappingPolicy.ALWAYS_SMT)
        assert set(cm.to_dict().values()) == {"SMT"}

    def test_threshold_needs_two_hw_subs(self):
        g, nm = tiny(SW, [HW, SW])
        cm, _ = map_communication(g, nm, MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB)
        assert cm.impl_of("t") is TopicImpl.SMT
        g2, nm2 = tiny(SW, [HW, HW])
        cm2, _ = map_communication(g2, nm2, MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB)
        assert cm2.impl_of("t") is TopicImpl.GW

    def test_cost_policy_small_vs_large(self):
        g_small, nm = tiny(SW, [HW, HW])
        cm, rationales = map_communication(g_small, nm, MappingPolicy.COST, FAST_HMT)
        # 1000 bytes: the gateway's OSIF round trips dominate, stay on SMT
        assert cm.impl_of("t") is TopicImpl.SMT
        assert rationales["t"] == "MIXED: predicted software transport latency 31.668us within gateway latency 91.043us"

        big = ComputationGraph(
            nodes=g_small.nodes,
            topics=(TopicSpec("t", 10_000_000, 10.0),),
            pub_edges=g_small.pub_edges,
            sub_edges=g_small.sub_edges,
        )
        cm_big, rationales = map_communication(big, nm, MappingPolicy.COST, FAST_HMT)
        # 10 MB: two MEMIF pulls cost more than one MEMIF crossing plus a fast HMT stream
        assert cm_big.impl_of("t") is TopicImpl.GW
        assert rationales["t"] == "MIXED: predicted gateway latency 10506.668us beats software transport 16696.668us"

    def test_cost_tie_prefers_smt(self):
        # SW publisher, one HW and one SW subscriber, 100 kB on the default platform:
        # both transports deliver the worst subscriber after exactly 993.334 us
        graph = ComputationGraph(
            nodes=("p", "s0", "s1"),
            topics=(TopicSpec("t", 100_000, 1.0),),
            pub_edges=(("p", "t"),),
            sub_edges=(("t", "s0"), ("t", "s1")),
        )
        nm = NodeMapping((("p", SW), ("s0", HW), ("s1", SW)))
        cm, rationales = map_communication(graph, nm, MappingPolicy.COST, PlatformModel())
        assert cm.impl_of("t") is TopicImpl.SMT
        assert rationales["t"] == "MIXED: predicted software transport latency 993.334us within gateway latency 993.334us"

    def test_cost_policy_without_publishers_stays_on_smt(self):
        with pytest.warns(DanglingTopicWarning, match="no publishers"):
            graph = ComputationGraph(
                nodes=("s0", "s1"),
                topics=(TopicSpec("t", 1000, 1.0),),
                pub_edges=(),
                sub_edges=(("t", "s0"), ("t", "s1")),
            )
        nm = NodeMapping((("s0", SW), ("s1", HW)))
        cm, rationales = map_communication(graph, nm, MappingPolicy.COST)
        assert cm.impl_of("t") is TopicImpl.SMT
        assert rationales["t"] == "MIXED: no publishers, so no message to price; stays on SMT"

    def test_cost_policy_no_hw_subs(self):
        g, nm = tiny(HW, [SW])
        cm, _ = map_communication(g, nm, MappingPolicy.COST)
        assert cm.impl_of("t") is TopicImpl.SMT

    def test_all_software_graph_stays_all_smt(self):
        """A graph with no hardware nodes never needs HMT or a gateway."""
        graph = ComputationGraph(
            nodes=("a", "b", "c"),
            topics=(TopicSpec("x", 4096, 10.0), TopicSpec("y", 128, 100.0)),
            pub_edges=(("a", "x"), ("b", "y")),
            sub_edges=(("x", "b"), ("x", "c"), ("y", "c")),
        )
        nm = NodeMapping((("a", SW), ("b", SW), ("c", SW)))
        for policy in MappingPolicy:
            cm, rationales = map_communication(graph, nm, policy)
            assert all(cm.impl_of(t) is TopicImpl.SMT for t in graph.topic_ids())
            report = mapping_report(graph, nm, cm, rationales)
            assert report["boundary_crossings"] == 0
            assert report["boundary_crossings_baseline_all_smt"] == 0

    def test_policy_conditions_hold_on_random_graphs(self):
        # re-derive each topic's expected impl from raw counts, no library calls
        rng = random.Random(1234)
        for _ in range(50):
            n_nodes = rng.randint(2, 8)
            nodes = tuple(f"n{i}" for i in range(n_nodes))
            topics = tuple(TopicSpec(f"t{i}", rng.choice((1200, 120000)), 1.0) for i in range(rng.randint(1, 5)))
            pubs, subs = set(), set()
            for t in topics:
                pubs.add((rng.choice(nodes), t.id))
                for _ in range(rng.randint(1, 4)):
                    subs.add((t.id, rng.choice(nodes)))
            graph = ComputationGraph(nodes, topics, tuple(pubs), tuple(subs))
            nm = NodeMapping(tuple((n, rng.choice((HW, SW))) for n in nodes))
            cm, _ = map_communication(graph, nm, MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB)
            for t in topics:
                ends = {n for n, _ in graph.pub_edges_of(t.id)}
                ends |= {n for _, n in graph.sub_edges_of(t.id)}
                hw_subs = sum(1 for _, n in graph.sub_edges_of(t.id) if nm.is_hw(n))
                if all(nm.is_hw(n) for n in ends):
                    expected = TopicImpl.HMT
                elif any(nm.is_hw(n) for n in ends) and hw_subs >= 2:
                    expected = TopicImpl.GW
                else:
                    expected = TopicImpl.SMT
                assert cm.impl_of(t.id) is expected


def crossings_oracle(graph, nm, cm):
    """Independent per-edge count of boundary crossings."""
    total = 0
    for topic in graph.topic_ids():
        impl = cm.impl_of(topic)
        endpoints = [n for n, _ in graph.pub_edges_of(topic)]
        endpoints += [n for _, n in graph.sub_edges_of(topic)]
        for node in endpoints:
            hw = nm.is_hw(node)
            if impl is TopicImpl.SMT and hw:
                total += 1
            elif impl is TopicImpl.GW and not hw:
                total += 1
    return total


class TestCrossings:
    def test_reference_counts(self, reference_doc):
        graph, nm = parse_document(reference_doc)
        all_smt = CommMapping(tuple((t, TopicImpl.SMT) for t in graph.topic_ids()))
        assert count_boundary_crossings(graph, nm, all_smt) == 10
        assert count_boundary_crossings(graph, nm, classification_mapping(graph, nm)) == 8
        cm, _ = map_communication(graph, nm, MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB)
        assert count_boundary_crossings(graph, nm, cm) == 3

    def test_hmt_with_software_endpoint_rejected(self):
        g, nm = tiny(HW, [SW])
        cm = CommMapping((("t", TopicImpl.HMT),))
        with pytest.raises(MappingError, match="software endpoints"):
            count_boundary_crossings(g, nm, cm)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(100):
            n_nodes = rng.randint(2, 7)
            n_topics = rng.randint(1, 4)
            nodes = tuple(f"n{i}" for i in range(n_nodes))
            topics = tuple(TopicSpec(f"t{i}", 64, 1.0) for i in range(n_topics))
            pubs, subs = set(), set()
            for t in topics:
                pubs.add((rng.choice(nodes), t.id))
                for _ in range(rng.randint(1, 3)):
                    subs.add((t.id, rng.choice(nodes)))
            graph = ComputationGraph(nodes, topics, tuple(pubs), tuple(subs))
            nm = NodeMapping(
                tuple((n, rng.choice((HW, SW))) for n in nodes)
            )
            assignments = []
            for t in topics:
                cls = classify_topic(graph, nm, t.id)
                if cls is TopicClass.ALL_HW:
                    impl = rng.choice((TopicImpl.SMT, TopicImpl.HMT))
                elif cls is TopicClass.ALL_SW:
                    impl = TopicImpl.SMT
                else:
                    impl = rng.choice((TopicImpl.SMT, TopicImpl.GW))
                assignments.append((t.id, impl))
            cm = CommMapping(tuple(assignments))
            assert count_boundary_crossings(graph, nm, cm) == crossings_oracle(graph, nm, cm)

    def test_report_document(self, reference_doc):
        graph, nm = parse_document(reference_doc)
        cm, rationales = map_communication(graph, nm, MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB)
        report = mapping_report(graph, nm, cm, rationales)
        assert report["boundary_crossings_baseline_all_smt"] == 10
        assert report["boundary_crossings_classified_smt_hmt"] == 8
        assert report["boundary_crossings"] == 3
        assert report["comm_mapping"]["A"] == "GW"
        assert set(report["rationales"]) == set(graph.topic_ids())


class TestCommMapping:
    def test_dict_round_trip(self):
        cm = CommMapping((("a", TopicImpl.GW), ("b", TopicImpl.SMT)))
        assert CommMapping.from_dict(cm.to_dict()) == cm

    def test_bad_impl_name(self):
        with pytest.raises(MappingError):
            CommMapping.from_dict({"t": "CARRIER_PIGEON"})

    def test_bad_impl_name_reads_as_the_scenario_error(self):
        with pytest.raises(MappingError) as err:
            CommMapping.from_dict({"t": "CARRIER_PIGEON"})
        assert str(err.value) == "unknown comm_mapping.t transport 'CARRIER_PIGEON' (choose from: SMT, HMT, GW)"

    def test_unknown_topic_lookup(self):
        with pytest.raises(KeyError):
            CommMapping(()).impl_of("t")

"""Graph document parsing, validation and edge queries."""

import json
import random
import warnings

import pytest
from hypothesis import given, strategies as st

from topomap.graph import (
    BadAnnotationError,
    ComputationGraph,
    DanglingTopicWarning,
    DuplicateIdError,
    GraphError,
    GraphSyntaxError,
    NodeMapping,
    Placement,
    TopicSpec,
    UnknownEndpointError,
    UnknownTopicError,
    parse_document,
    parse_graph,
    serialize_graph,
)


def small_graph() -> ComputationGraph:
    return ComputationGraph(
        nodes=("n1", "n2", "n3"),
        topics=(TopicSpec("ta", 100, 10.0), TopicSpec("tb", 200, 5.0)),
        pub_edges=(("n1", "ta"), ("n2", "tb")),
        sub_edges=(("ta", "n2"), ("ta", "n3"), ("tb", "n1")),
    )


class TestParsing:
    def test_reference_document_counts(self, reference_doc):
        graph, node_mapping = parse_document(reference_doc)
        assert len(graph.nodes) == 11
        assert len(graph.topics) == 5
        assert len(graph.pub_edges) == 5
        assert len(graph.sub_edges) == 10
        assert node_mapping is not None
        hw = [n for n, p in node_mapping.placements if p is Placement.HW]
        assert len(hw) == 8

    def test_round_trip(self, reference_doc):
        graph, node_mapping = parse_document(reference_doc)
        again, mapping_again = parse_document(serialize_graph(graph, node_mapping))
        assert again == graph
        assert mapping_again == node_mapping

    def test_bad_json_reports_position(self):
        with pytest.raises(GraphSyntaxError) as err:
            parse_graph("{\n  \"nodes\": [\n")
        assert err.value.line is not None

    def test_missing_section(self):
        with pytest.raises(GraphSyntaxError, match="subscribes"):
            parse_graph('{"nodes": [], "topics": [], "publishes": []}')

    def test_non_object_document(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("[1, 2, 3]")

    def test_topic_missing_size(self):
        doc = {
            "nodes": [{"id": "n"}],
            "topics": [{"id": "t", "publish_rate_hz": 1.0}],
            "publishes": [],
            "subscribes": [],
        }
        with pytest.raises(GraphSyntaxError, match="message_size_bytes"):
            parse_graph(json.dumps(doc))

    def test_node_mapping_values_checked(self):
        doc = {
            "nodes": [{"id": "n"}],
            "topics": [],
            "publishes": [],
            "subscribes": [],
            "node_mapping": {"n": "FPGA"},
        }
        with pytest.raises(BadAnnotationError, match="HW"):
            parse_document(json.dumps(doc))

    def test_node_mapping_error_lists_the_choices(self):
        with pytest.raises(BadAnnotationError) as err:
            NodeMapping.from_dict({"n": "FPGA"})
        assert str(err.value) == "unknown node_mapping.n placement 'FPGA' (choose from: HW, SW)"


class TestValidation:
    def test_duplicate_node(self):
        with pytest.raises(DuplicateIdError):
            ComputationGraph(("a", "a"), (), (), ())

    def test_duplicate_topic(self):
        with pytest.raises(DuplicateIdError):
            ComputationGraph(
                ("a",), (TopicSpec("t", 1, 1.0), TopicSpec("t", 2, 1.0)), (), ()
            )

    def test_namespace_collision(self):
        with pytest.raises(DuplicateIdError, match="disjoint"):
            ComputationGraph(("x",), (TopicSpec("x", 1, 1.0),), (), ())

    @pytest.mark.parametrize("node", ["gw.t", "gw.t.hmt"])
    def test_node_holding_a_gateway_id(self, node):
        # the gateway of t would discard the node's messages as its own loop-back
        with pytest.raises(DuplicateIdError, match=rf"gateway ids, shared ids: \['{node}'\]"):
            ComputationGraph((node, "s"), (TopicSpec("t", 1, 1.0),), ((node, "t"),), (("t", "s"),))

    def test_duplicate_publish_edge(self):
        with pytest.raises(DuplicateIdError):
            ComputationGraph(
                ("a",), (TopicSpec("t", 1, 1.0),), (("a", "t"), ("a", "t")), (("t", "a"),)
            )

    def test_unknown_publisher(self):
        with pytest.raises(UnknownEndpointError):
            ComputationGraph(("a",), (TopicSpec("t", 1, 1.0),), (("ghost", "t"),), ())

    def test_unknown_subscribed_topic(self):
        with pytest.raises(UnknownEndpointError):
            ComputationGraph(("a",), (TopicSpec("t", 1, 1.0),), (), (("ghost", "a"),))

    def test_non_positive_size(self):
        with pytest.raises(BadAnnotationError):
            TopicSpec("t", 0, 1.0)

    def test_bool_size_rejected(self):
        with pytest.raises(BadAnnotationError):
            TopicSpec("t", True, 1.0)

    def test_non_positive_rate(self):
        with pytest.raises(BadAnnotationError):
            TopicSpec("t", 1, 0.0)

    def test_dangling_topic_warns(self):
        # each warning names the line that built the graph
        topics = (TopicSpec("orphan", 1, 1.0), TopicSpec("unread", 1, 1.0), TopicSpec("unwritten", 1, 1.0))
        with pytest.warns(DanglingTopicWarning) as caught:
            ComputationGraph(("a",), topics, (("a", "unread"),), (("unwritten", "a"),))
        assert [str(w.message) for w in caught] == [
            "topic 'orphan' has no endpoints",
            "topic 'unread' has no subscribers",
            "topic 'unwritten' has no publishers",
        ]
        assert {w.filename for w in caught} == {__file__}

    def test_fully_connected_topic_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small_graph()


class TestQueries:
    def test_edges_of_known_topic(self):
        g = small_graph()
        assert g.pub_edges_of("ta") == (("n1", "ta"),)
        assert g.sub_edges_of("ta") == (("ta", "n2"), ("ta", "n3"))
        assert g.publishers_of("tb") == ("n2",)
        assert g.subscribers_of("tb") == ("n1",)

    def test_unknown_topic_lookup(self):
        with pytest.raises(UnknownTopicError):
            small_graph().topic("nope")
        with pytest.raises(UnknownTopicError):
            small_graph().pub_edges_of("nope")

    def test_unknown_topic_is_a_graph_error(self):
        with pytest.raises(GraphError) as err:
            small_graph().topic("nope")
        assert isinstance(err.value, UnknownTopicError)
        assert str(err.value) == "unknown topic 'nope'"

    def test_topic_without_publishers_yields_empty_edges(self):
        with pytest.warns(DanglingTopicWarning):
            g = ComputationGraph(
                nodes=("a",),
                topics=(TopicSpec("t", 8, 1.0),),
                pub_edges=(),
                sub_edges=(("t", "a"),),
            )
        assert g.pub_edges_of("t") == ()
        assert g.publishers_of("t") == ()
        assert g.subscribers_of("t") == ("a",)

    def test_collections_sorted(self):
        g = ComputationGraph(
            nodes=("z", "a", "m"),
            topics=(TopicSpec("t2", 1, 1.0), TopicSpec("t1", 1, 1.0)),
            pub_edges=(("z", "t1"), ("a", "t1"), ("m", "t2")),
            sub_edges=(("t1", "z"), ("t1", "a"), ("t2", "a"), ("t2", "z")),
        )
        assert g.nodes == ("a", "m", "z")
        assert [t.id for t in g.topics] == ["t1", "t2"]
        assert g.pub_edges == (("a", "t1"), ("m", "t2"), ("z", "t1"))

    def test_edge_queries_match_plain_filter(self):
        """Edge accessors agree with filtering the full edge lists."""
        rng = random.Random(7)
        for _ in range(50):
            n_nodes = rng.randint(1, 6)
            n_topics = rng.randint(1, 4)
            nodes = tuple(f"n{i}" for i in range(n_nodes))
            topics = tuple(TopicSpec(f"t{i}", 10, 1.0) for i in range(n_topics))
            pubs, subs = set(), set()
            for t in topics:
                pubs.add((rng.choice(nodes), t.id))
                subs.add((t.id, rng.choice(nodes)))
            for _ in range(rng.randint(0, 6)):
                pubs.add((rng.choice(nodes), rng.choice(topics).id))
                subs.add((rng.choice(topics).id, rng.choice(nodes)))
            g = ComputationGraph(nodes, topics, tuple(pubs), tuple(subs))
            for t in topics:
                assert g.pub_edges_of(t.id) == tuple(
                    sorted(e for e in pubs if e[1] == t.id)
                )
                assert g.sub_edges_of(t.id) == tuple(
                    sorted(e for e in subs if e[0] == t.id)
                )


class TestNodeMapping:
    def test_total_mapping_ok(self):
        g = small_graph()
        nm = NodeMapping.from_dict({"n1": "HW", "n2": "SW", "n3": "SW"})
        nm.validate_against(g)
        assert nm.is_hw("n1") and not nm.is_hw("n2")

    def test_missing_node_rejected(self):
        g = small_graph()
        nm = NodeMapping.from_dict({"n1": "HW"})
        with pytest.raises(UnknownEndpointError, match="missing"):
            nm.validate_against(g)

    def test_stranger_rejected(self):
        g = small_graph()
        nm = NodeMapping.from_dict({"n1": "HW", "n2": "SW", "n3": "SW", "n9": "HW"})
        with pytest.raises(UnknownEndpointError, match="unknown"):
            nm.validate_against(g)

    def test_duplicate_assignment(self):
        with pytest.raises(DuplicateIdError):
            NodeMapping((("a", Placement.HW), ("a", Placement.SW)))

    def test_dict_round_trip(self):
        d = {"n1": "HW", "n2": "SW"}
        assert NodeMapping.from_dict(d).to_dict() == d


@given(
    st.dictionaries(
        st.text(alphabet="abcdef", min_size=1, max_size=3).map(lambda s: "n_" + s),
        st.booleans(),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=10**8),
    st.floats(min_value=0.001, max_value=1000.0, allow_nan=False),
)
def test_serialize_parse_round_trip_property(node_kinds, size, rate):
    """Any graph survives a serialize/parse cycle unchanged."""
    nodes = tuple(sorted(node_kinds))
    topics = (TopicSpec("t0", size, rate),)
    pub_edges = ((nodes[0], "t0"),)
    sub_edges = tuple(("t0", n) for n in nodes)
    graph = ComputationGraph(nodes, topics, pub_edges, sub_edges)
    nm = NodeMapping(
        tuple((n, Placement.HW if hw else Placement.SW) for n, hw in node_kinds.items())
    )
    graph2, nm2 = parse_document(serialize_graph(graph, nm))
    assert graph2 == graph
    assert nm2 == nm

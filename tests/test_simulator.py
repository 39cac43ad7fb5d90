import dataclasses
import gc
import hashlib
import itertools
import json
import random
import re
import signal
import statistics
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomap.graph import ComputationGraph, DanglingTopicWarning, NodeMapping, Placement, TopicSpec, parse_document
from topomap.mapping import (
    CommMapping,
    MappingError,
    MappingPolicy,
    TopicImpl,
    count_boundary_crossings,
    map_communication,
    topic_endpoints,
)
from topomap.documents import FieldError
from topomap.platform_model import PlatformModel
from topomap.engine import Delivery, SimResult, _Sim
from topomap.scenario import (
    GridSpec,
    Scenario,
    ScenarioError,
    WorkloadItem,
    chain_relays,
    check_workload,
    load_scenario,
    scenario_from_json,
    star_graph,
    star_scenario,
)
from topomap.simulator import (
    STATS_HEADER,
    TRACE_HEADER,
    _fanout_latencies,
    cell_times,
    compare_grid,
    compare_to_csv,
    compute_stats,
    run_chain_scenario,
    simulate,
    stats_to_csv,
    trace_to_csv,
)
from topomap import timing
from topomap.timing import predict_latency_ns

PLATFORM = PlatformModel()

SMT = MappingPolicy.ALWAYS_SMT
CLASSIFYING = MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB

# default bandwidths are all 1.2e9 B/s, so these sizes give exact
# microsecond transfer times: size / 1.2 ns per byte
S_100US = 120_000
S_10US = 12_000
S_1US = 1_200


def quiet(publisher_kind, hw, sw, size, **kw):
    """Star scenario with jitter disabled for exact-timing oracles."""
    kw.setdefault("reps", 1)
    kw.setdefault("period_us", 1_000_000.0)
    kw.setdefault("seed", 0)
    return star_scenario(publisher_kind, hw, sw, size, jitter_pct=0.0, **kw)


def software_graph(publishes, subscribes):
    """An all-software graph of 1000-byte topics from (node, topic) and (topic, node) pairs."""
    nodes = sorted({n for n, _ in publishes} | {n for _, n in subscribes})
    doc = {
        "nodes": [{"id": n} for n in nodes],
        "topics": [{"id": t, "message_size_bytes": 1000, "publish_rate_hz": 30.0} for t in sorted({t for _, t in publishes})],
        "publishes": [{"node": n, "topic": t} for n, t in publishes],
        "subscribes": [{"topic": t, "node": n} for t, n in subscribes],
        "node_mapping": {n: "SW" for n in nodes},
    }
    return parse_document(json.dumps(doc))


def latencies(result, subscriber=None):
    return [
        d.latency_us
        for d in result.deliveries
        if subscriber is None or d.subscriber == subscriber
    ]


class TestExactTimings:
    """Every path charged by the simulator, checked against hand arithmetic."""

    def test_sw_publisher_single_sw_subscriber(self):
        # affine software delivery only: 10 + 0.009 * 10000 = 100 us
        result = simulate(quiet("sw", 0, 1, 10_000), PLATFORM)
        assert latencies(result) == [100.0]
        kinds = result.kind_counts()
        assert kinds == {"PUBLISH": 1, "DELIVER": 1}
        assert result.trace[0].message_id == "t0#0"
        assert result.deliveries[0].topic == "t0"

    def test_hw_publisher_single_hw_subscriber_smt(self):
        # publish 30+8, delegate detect 30, pooled read 100 -> 168 us
        result = simulate(quiet("hw", 1, 0, S_100US, policy=SMT), PLATFORM)
        assert latencies(result) == [168.0]
        assert result.kind_counts()["MEMIF_TRANSFER"] == 1

    def test_hmt_single_subscriber_matches_smt_at_equal_bandwidth(self):
        # stream 100 (same bandwidth), take 30, publish 38 -> 168 us again
        result = simulate(quiet("hw", 1, 0, S_100US, policy=CLASSIFYING), PLATFORM)
        assert latencies(result) == [168.0]
        kinds = result.kind_counts()
        assert kinds.get("MEMIF_TRANSFER", 0) == 0
        assert kinds["HMT_TRANSFER"] == 1

    def test_sw_publisher_copies_serially(self):
        # copy slots 0/10/20 us, then 118 us delivery each
        result = simulate(quiet("sw", 0, 3, S_10US), PLATFORM)
        per_sub = {d.subscriber: d.latency_us for d in result.deliveries}
        assert per_sub == {"sw_sub_1": 118.0, "sw_sub_2": 128.0, "sw_sub_3": 138.0}
        assert result.kind_counts()["SW_COPY"] == 2

    def test_hw_publisher_fans_out_loaned(self):
        # already in main memory: every reader sees it at once
        result = simulate(quiet("hw", 0, 3, S_10US), PLATFORM)
        assert latencies(result) == [156.0, 156.0, 156.0]
        assert "SW_COPY" not in result.kind_counts()

    def test_concurrent_reads_share_memif_bandwidth(self):
        # two delegates pull together: each read takes twice as long
        result = simulate(quiet("hw", 2, 0, S_100US, policy=SMT), PLATFORM)
        assert latencies(result) == [268.0, 268.0]
        assert (68_000, 268_000, 2, 240_000.0) in result.memif_segments

    def test_gateway_forwards_sw_publication_to_hw(self):
        # delegate response 60, memif read 1, stream 1, take 30 -> 92 us
        scn = quiet("sw", 1, 0, S_1US, comm_mapping=CommMapping.from_dict({"t0": "GW"}))
        result = simulate(scn, PLATFORM)
        assert latencies(result) == [92.0]
        kinds = result.kind_counts()
        assert kinds["MEMIF_TRANSFER"] == 1
        assert kinds["GW_ACTION:TRANSFER_TO_HMT"] == 1
        assert kinds["GW_ACTION:DISCARD"] == 1  # own transfer looping back
        assert kinds["HMT_TRANSFER"] == 1

    def test_gateway_forwards_hw_publication_to_sw(self):
        # publish 38, stream 1, write 1, cancel 30, publish 8, sw 20.8 -> 98.8
        scn = quiet("hw", 0, 1, S_1US, comm_mapping=CommMapping.from_dict({"t0": "GW"}))
        result = simulate(scn, PLATFORM)
        assert latencies(result) == [pytest.approx(98.8)]
        kinds = result.kind_counts()
        assert kinds["MEMIF_TRANSFER"] == 1
        assert kinds["GW_ACTION:TRANSFER_TO_MAIN"] == 1
        assert kinds["GW_ACTION:CANCEL_SMT_REQUEST"] == 1
        assert kinds["GW_ACTION:PUBLISH_SMT"] == 1
        assert kinds["GW_ACTION:DISCARD"] == 1  # own publication looping back

    def test_gateway_survives_burst_arrivals(self):
        # arrivals spaced inside the cancel window must not wedge the queue
        scn = star_scenario(
            "hw", 1, 1, S_10US, reps=5, period_us=10.0, seed=3,
            comm_mapping=CommMapping.from_dict({"t0": "GW"}),
        )
        result = simulate(scn, PLATFORM)
        assert len(result.deliveries) == 10
        assert result.kind_counts()["GW_ACTION:PUBLISH_SMT"] == 5


class TestJitterAndDeterminism:
    def test_same_seed_reproduces_trace_exactly(self):
        scn = star_scenario("hw", 2, 1, S_100US, reps=5, period_us=500.0, seed=42)
        a = trace_to_csv(simulate(scn, PLATFORM))
        b = trace_to_csv(simulate(scn, PLATFORM))
        assert a == b

    def test_seed_override_changes_outcome(self):
        scn = star_scenario("hw", 2, 1, S_100US, reps=5, period_us=500.0, seed=42)
        a = trace_to_csv(simulate(scn, PLATFORM))
        b = trace_to_csv(simulate(scn, PLATFORM, seed=43))
        assert a != b

    def test_zero_jitter_is_identical_across_seeds(self):
        a = simulate(quiet("hw", 2, 1, S_10US, seed=1), PLATFORM)
        b = simulate(quiet("hw", 2, 1, S_10US, seed=2), PLATFORM)
        assert trace_to_csv(a) == trace_to_csv(b)

    def test_jitter_bounds_on_control_path(self):
        # one hw->hw smt delivery: latency = 38 + 30 + 100 with each control
        # charge jittered by at most +-5%: bounds are (68*0.95, 68*1.05) + 100
        lats = []
        for seed in range(40):
            scn = star_scenario("hw", 1, 0, S_100US, reps=1, period_us=1e6,
                                seed=seed, policy=SMT)
            lats.extend(latencies(simulate(scn, PLATFORM)))
        assert all(68 * 0.95 + 95 <= lat <= 68 * 1.05 + 105 for lat in lats)
        assert statistics.pstdev(lats) > 0.1

    def test_memif_pool_never_exceeds_bandwidth(self):
        scn = star_scenario("hw", 8, 0, 1_200_000, reps=3, period_us=100.0,
                            seed=9, policy=SMT)
        result = simulate(scn, PLATFORM)
        assert result.memif_segments
        bps = PLATFORM.memif_bandwidth_bytes_per_s
        for t0, t1, flows, nbytes in result.memif_segments:
            assert t1 > t0
            assert flows >= 1
            assert nbytes <= (t1 - t0) * bps / 1e9 * (1 + 1e-9)


class TestTraceOutput:
    def test_trace_csv_header_and_formatting(self):
        result = simulate(quiet("sw", 0, 1, 10_000), PLATFORM)
        lines = trace_to_csv(result).splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        assert lines[1] == "0.000,PUBLISH,t0#0,pub0"
        assert lines[2] == "100.000,DELIVER,t0#0,sw_sub_1"

    def test_stats_csv_exact(self):
        deliveries = [
            Delivery("t0", "a", 0, 0, 1_000),
            Delivery("t0", "a", 1, 0, 3_000),
            Delivery("t0", "a", 2, 0, 2_000),
            Delivery("t0", "b", 0, 500, 1_500),
        ]
        rows = compute_stats(SimResult([], deliveries, []))
        assert [tuple(r[k] for k in ("topic", "subscriber", "count")) for r in rows] == [
            ("t0", "a", 3),
            ("t0", "b", 1),
        ]
        text = stats_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == ",".join(STATS_HEADER)
        assert lines[1] == "t0,a,3,2.000,1.000,1.000,3.000"
        assert lines[2] == "t0,b,1,1.000,0.000,1.000,1.000"

    @given(
        st.lists(st.integers(min_value=1, max_value=10_000_000), min_size=1, max_size=40)
    )
    @settings(max_examples=60, deadline=None)
    def test_stats_match_manual_aggregation(self, delta_ns):
        deliveries = [Delivery("t", "s", i, 0, d) for i, d in enumerate(delta_ns)]
        (row,) = compute_stats(SimResult([], deliveries, []))
        lats = [d / 1000 for d in delta_ns]
        assert row["count"] == len(lats)
        assert row["mean_us"] == pytest.approx(statistics.fmean(lats))
        assert row["min_us"] == min(lats)
        assert row["max_us"] == max(lats)
        expected_std = statistics.stdev(lats) if len(lats) > 1 else 0.0
        assert row["stddev_us"] == pytest.approx(expected_std)


class TestMessageIds:
    """Every trace row about a message names it ``topic#seq``, from its publication to each delivery."""

    def test_one_publisher_two_topics(self):
        # p publishes two topics, so ``p`` and a seq alone cannot tell their messages apart
        sw, hw = Placement.SW, Placement.HW
        placements = {"p": sw, "h": hw, "s": sw}
        graph = ComputationGraph(
            nodes=tuple(placements),
            topics=(TopicSpec("t1", 10_000, 10.0), TopicSpec("t2", 10_000, 10.0)),
            pub_edges=(("p", "t1"), ("p", "t2")),
            sub_edges=(("t1", "h"), ("t2", "s")),
        )
        scenario = Scenario(
            graph=graph,
            node_mapping=NodeMapping(tuple(placements.items())),
            workload=(WorkloadItem("p", "t1", 2, 1000.0), WorkloadItem("p", "t2", 2, 1000.0)),
            policy=SMT,
        )
        trace = simulate(scenario, PLATFORM).trace
        assert [ev.message_id for ev in trace if ev.kind == "PUBLISH"] == ["t1#0", "t2#0", "t1#1", "t2#1"]
        rows = {}
        for ev in trace:
            rows.setdefault(ev.message_id, []).append((ev.kind, ev.endpoint))
        # one group per message, each holding all of that message's rows and one publication
        t1 = [("PUBLISH", "p"), ("MEMIF_TRANSFER", "h"), ("DELIVER", "h")]
        t2 = [("PUBLISH", "p"), ("DELIVER", "s")]
        assert rows == {"t1#0": t1, "t2#0": t2, "t1#1": t1, "t2#1": t2}

    def test_gateway_rows_name_the_message(self):
        # the gateway's reads, transfers, loop-backs and discards all name the message they move
        result = simulate(star_scenario("sw", 16, 8, 100_000, 40, 5000.0, 4, policy=CLASSIFYING), PLATFORM)
        ids = {ev.message_id for ev in result.trace} - {"-"}
        assert ids == {f"t0#{seq}" for seq in range(40)}


class TestEngineCosts:
    """What the engine keeps and computes per event, beyond the timings themselves."""

    def test_heap_holds_only_in_flight_events(self):
        # the next publication waits on the heap, the other 1998 do not
        class HeapAtPublish(_Sim):
            def publish(self, *args):
                heap_sizes.append(len(self._heap))
                super().publish(*args)

        heap_sizes = []
        scn = star_scenario("sw", 1, 0, S_10US, reps=2000, period_us=100.0, seed=1, policy=SMT)
        sim = HeapAtPublish(scn.graph, scn.node_mapping, scn.resolve_mapping(PLATFORM), PLATFORM, seed=scn.seed)
        result = sim.run(scn.workload)
        assert len(result.deliveries) == len(heap_sizes) == 2000
        assert max(heap_sizes) < 10

    def test_loaned_fanout_pushes_one_heap_entry_per_block(self):
        """A loaned fan-out pushes its hardware pulls and its software subscribers as one heap entry each.

        A HW publication on SMT to 32 HW and 4 SW subscribers adds two heap
        entries, not 36, while the seq counter moves on by one per reader.
        """

        class FanoutPushes(_Sim):
            def _smt_fanout(self, route, message, loaned):
                heap, seq = len(self._heap), self._seq
                super()._smt_fanout(route, message, loaned)
                pushes.append((loaned, len(self._heap) - heap, self._seq - seq))

        pushes = []
        scn = star_scenario("hw", 32, 4, S_10US, reps=3, period_us=5000.0, seed=1, policy=SMT)
        sim = FanoutPushes(scn.graph, scn.node_mapping, scn.resolve_mapping(PLATFORM), PLATFORM, seed=scn.seed)
        result = sim.run(scn.workload)
        assert len(result.deliveries) == 3 * 36
        assert pushes == [(True, 2, 36)] * 3

    @staticmethod
    def _watched_pulls(scn):
        """Run ``scn``; per MEMIF pull, whether a tie forced its delivery onto the heap and whether it was pushed.

        A tie forces the push when the pull's pool completion finished
        another flow too, or when an event waits on the heap at the same
        nanosecond. Each pull also records the pool's next ``due``, which
        ``complete`` never leaves on the nanosecond it fires.
        """
        pulls, completions = [], []

        class PullWatch(_Sim):
            def _pulled(self, message, subscriber):
                now, heap, delivered = self.now_ns, self._heap, len(self._deliveries)
                head_now = bool(heap) and heap[0][0] == now
                super()._pulled(message, subscriber)
                pushed = len(self._deliveries) == delivered
                pulls.append((len(completions), now, head_now, self.pool.due, pushed))

        sim = PullWatch(scn.graph, scn.node_mapping, scn.resolve_mapping(PLATFORM), PLATFORM, scn.seed, scn.jitter_pct)
        complete = sim.pool.complete

        def counted():
            completions.append(sim.now_ns)
            complete()

        sim.pool.complete = counted
        result = sim.run(scn.workload)
        together = Counter(completion for completion, *_ in pulls)
        for completion, now, head_now, due, pushed in pulls:
            assert due is None or due[0] > now, (now, due)
            assert pushed is (together[completion] > 1 or head_now), (now, together[completion], head_now)
        h = hashlib.sha256(trace_to_csv(result).encode())
        h.update(repr((result.memif_segments, result.deliveries)).encode())
        return [pushed for *_, pushed in pulls], [now for _, now, *_ in pulls], h.hexdigest()

    def test_pull_delivers_in_place_unless_a_tie_forces_a_push(self):
        """A pull's delivery runs inside its pool completion unless a tie forces it onto the heap.

        On a jittered 32-HW + 4-SW SMT star, 1276 of 1280 deliveries run in
        place; the other 4 are two pairs of pulls that finished together.
        The output is byte for byte what pushing every delivery gave.
        """
        scn = star_scenario("hw", 32, 4, 100_000, reps=40, period_us=5000.0, seed=3, policy=SMT, jitter_pct=0.05)
        pushed, _, digest = self._watched_pulls(scn)
        assert Counter(pushed) == {False: 1276, True: 4}
        assert digest == "f55aad8f55c7cb5f560c4a4e9656bb467e3e728d47a5066a79a8a4c8d1e2a069"

    @staticmethod
    def _pull_ties(sizes, counts, extra=()):
        """HW publishers of ``a`` and ``b`` on SMT, one HW subscriber each, and ``ctl``'s software topic ``c``."""
        hw, sw = Placement.HW, Placement.SW
        placements = {"cam_a": hw, "cam_b": hw, "hw_a": hw, "hw_b": hw, "ctl": sw, "sw_1": sw}
        graph = ComputationGraph(
            nodes=tuple(placements),
            topics=(TopicSpec("a", sizes[0], 10.0), TopicSpec("b", sizes[1], 10.0), TopicSpec("c", 1000, 10.0)),
            pub_edges=(("cam_a", "a"), ("cam_b", "b"), ("ctl", "c")),
            sub_edges=(("a", "hw_a"), ("b", "hw_b"), ("c", "sw_1")),
        )
        workload = (WorkloadItem("cam_a", "a", counts[0], 5000.0), WorkloadItem("cam_b", "b", counts[1], 5000.0))
        return Scenario(
            graph=graph,
            node_mapping=NodeMapping(tuple(placements.items())),
            workload=workload + extra,
            seed=1,
            comm_mapping=CommMapping(tuple((t, TopicImpl.SMT) for t in "abc")),
            jitter_pct=0.0,
        )

    @pytest.mark.parametrize(
        "sizes, counts, extra, expected_pushed, digest",
        [
            # equal pulls started on one nanosecond finish in one completion: each delivery
            # waits until both MEMIF_TRANSFER rows are written
            pytest.param(
                (S_10US, S_10US), (3, 3), (), [True] * 6,
                "5034755b1f13c9e15da1ac8f7b3a87eca1831a5310eee0be3c3be24b49bcd38b",
                id="two-flows-in-one-completion",
            ),
            # ``a``'s pull starts at 68 us and takes 100 us; ``ctl``'s second message, published
            # at 149 us, after the pool last rescheduled, is delivered 19 us later, on the
            # nanosecond the pull finishes: that delivery runs first, then the pull's
            pytest.param(
                (S_100US, S_10US), (3, 0), (WorkloadItem("ctl", "c", 2, 149.0),), [True, False, False],
                "8a5eeb272edc1774612bd070efb4d98000094a8e340edc6311f1ccfc25efcf21",
                id="event-on-the-heap-at-the-same-ns",
            ),
            # 12,000 and 12,001 bytes: ``b``'s pull finishes 1 ns after ``a``'s, so the pool's
            # next ``due`` is 1 ns later and both deliver in place; ``complete`` never
            # reschedules ``due`` on the nanosecond it fires, so no pool tie can force a push
            pytest.param(
                (S_10US, S_10US + 1), (3, 3), (), [False] * 6,
                "b74402a0a7e08dc2e1a42b3f2b36e0c18a6c2aee8b6c61a79a96917af593953a",
                id="next-due-1-ns-later",
            ),
        ],
    )
    def test_pull_delivery_ties_at_jitter_zero(self, sizes, counts, extra, expected_pushed, digest):
        """Each tie that must push a pull's delivery, at jitter 0; the output is what pushing every delivery gave."""
        pushed, times, got = self._watched_pulls(self._pull_ties(sizes, counts, extra))
        assert (pushed, got) == (expected_pushed, digest), times

    def test_run_checks_the_workload_without_scanning_publish_edges(self, monkeypatch):
        """The workload check tests each item against sets built once, not the graph's publish edges per item.

        One item per publish edge of a random graph of 300 topics; before the
        check used sets, it made one ``publishers_of`` call per item.
        """
        rng = random.Random(31)
        nodes = [f"n{i}" for i in range(120)]
        topics, pub_edges, sub_edges = [], [], []
        for k in range(300):
            endpoints = rng.sample(nodes, rng.randint(2, 6))
            n_pubs = rng.randint(1, min(3, len(endpoints) - 1))
            topics.append(TopicSpec(f"t{k}", rng.randint(1, 128) * 1000, 10.0))
            pub_edges += [(n, f"t{k}") for n in endpoints[:n_pubs]]
            sub_edges += [(f"t{k}", n) for n in endpoints[n_pubs:]]
        graph = ComputationGraph(tuple(nodes), tuple(topics), tuple(pub_edges), tuple(sub_edges))
        node_mapping = NodeMapping(tuple((n, rng.choice(list(Placement))) for n in nodes))
        comm_mapping, _ = map_communication(graph, node_mapping, MappingPolicy.ALWAYS_SMT)
        sim = _Sim(graph, node_mapping, comm_mapping, PLATFORM, seed=1)
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("publishers_of", "pub_edges_of"):
            monkeypatch.setattr(ComputationGraph, name, counted(name, getattr(ComputationGraph, name)))
        workload = tuple(WorkloadItem(n, t) for n, t in graph.pub_edges)
        check_workload(graph, workload)
        result = sim.run(workload)
        publishers = Counter(t for _, t in graph.pub_edges)
        assert len(result.deliveries) == sum(publishers[t] for t, _ in graph.sub_edges)
        assert calls == []

    @pytest.mark.parametrize("impl", [TopicImpl.SMT, TopicImpl.GW])
    @pytest.mark.parametrize("publisher_kind", ["hw", "sw"])
    def test_charges_follow_the_workload_size(self, publisher_kind, impl):
        """A workload ``size_bytes`` overrides the topic's size in every charge of every path."""
        graph, node_mapping = star_graph(publisher_kind, 3, 2, S_100US)
        size = 37_000
        scn = Scenario(
            graph=graph,
            node_mapping=node_mapping,
            workload=(WorkloadItem("pub0", "t0", count=4, period_us=1_000_000.0, size_bytes=size),),
            comm_mapping=CommMapping((("t0", impl),)),
            jitter_pct=0.0,
        )
        endpoints = topic_endpoints(graph, node_mapping, "t0")
        expected = predict_latency_ns(endpoints, "pub0", impl, size, PLATFORM)
        assert expected != predict_latency_ns(endpoints, "pub0", impl, S_100US, PLATFORM)
        result = simulate(scn, PLATFORM)
        assert len(result.deliveries) == 4 * len(expected)
        for d in result.deliveries:
            assert d.t_deliver_ns - d.t_pub_ns == expected[d.subscriber], d

    def test_runs_copy_no_message_and_look_up_no_topic(self, data_dir, monkeypatch):
        """Once a run's events start, no ``dataclasses.replace`` and no ``ComputationGraph.topic`` call is made.

        A gateway's loop-back copy comes from ``Message.loop_back`` and a
        publication's declared size from its route; only the workload check,
        before the events, looks each item's topic up. Checked on the
        packaged chain under multi-hw-sub, whose relays publish at the declared
        size, and on a jittered GW star; the deliveries stay those of the
        unpatched run.
        """
        chain_scn = load_scenario(data_dir / "chain_scenario.json")
        assert chain_scn.policy is CLASSIFYING
        star = star_scenario("sw", 4, 2, S_10US, reps=40, period_us=50.0, seed=5, policy=CLASSIFYING, jitter_pct=0.05)
        cases = {
            "packaged chain": lambda: simulate(chain_scn, PLATFORM),
            "jittered gw star": lambda: simulate(star, PLATFORM),
        }
        expected = {}
        for label, case in cases.items():
            result = case()
            assert any(ev.kind.startswith("GW_ACTION:") for ev in result.trace), label
            expected[label] = result.deliveries

        calls, running, real_drain = [], [], _Sim.drain

        def drain(self):
            running.append(True)
            try:
                real_drain(self)
            finally:
                running.pop()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                if running:
                    calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(_Sim, "drain", drain)
        # every loaded topomap module that holds ``replace``, so code that moves between modules stays guarded
        real_replace = dataclasses.replace
        holders = [
            module
            for name, module in sys.modules.items()
            if name.split(".")[0] == "topomap" and vars(module).get("replace") is real_replace
        ]
        assert holders
        for module in (dataclasses, *holders):
            monkeypatch.setattr(module, "replace", counted("replace", real_replace))
        monkeypatch.setattr(ComputationGraph, "topic", counted("topic", ComputationGraph.topic))
        for label, case in cases.items():
            assert case().deliveries == expected[label], label
        assert calls == []

    @staticmethod
    def _gc_free_cases(data_dir):
        chain_scn = load_scenario(data_dir / "chain_scenario.json")
        yield "packaged chain", lambda: run_chain_scenario(chain_scn, PLATFORM, chain_scn.chain)
        for kind, policy in itertools.product(["hw", "sw"], [SMT, CLASSIFYING, MappingPolicy.COST]):
            scn = star_scenario(kind, 4, 2, S_10US, reps=50, period_us=100.0, seed=1, policy=policy)
            yield f"{kind} star, {policy.value}", lambda scn=scn: simulate(scn, PLATFORM)
        yield "memif replay", lambda: timing._memif_schedule.__wrapped__((0, 10, 20), 100, 1000, 1e9)
        yield "cost mapping", lambda: map_communication(
            chain_scn.graph, chain_scn.node_mapping, MappingPolicy.COST, PLATFORM
        )

    def test_runs_leave_no_reference_cycles(self, data_dir):
        """What makes pausing the collector in ``_EventLoop.drain`` safe: nothing a run makes needs it."""
        collecting = gc.isenabled()
        try:
            for label, case in self._gc_free_cases(data_dir):
                gc.collect()
                gc.disable()
                case()  # its result is dropped at once
                assert gc.collect() == 0, label
                gc.enable()
        finally:
            (gc.enable if collecting else gc.disable)()


class TestInvariants:
    """Bookkeeping identities that hold on any workload."""

    def test_transfer_counts_per_implementation(self):
        rng = random.Random(20_26)
        for _ in range(60):
            pub_kind = rng.choice(["hw", "sw"])
            n_hw = rng.randint(0, 3)
            n_sw = rng.randint(0, 3)
            if n_hw + n_sw == 0:
                n_sw = 1
            reps = rng.randint(1, 3)
            policy = rng.choice([SMT, CLASSIFYING, MappingPolicy.COST])
            scn = star_scenario(
                pub_kind, n_hw, n_sw, rng.choice([S_1US, S_10US, S_100US]),
                reps=reps, period_us=rng.uniform(1_000, 10_000),
                seed=rng.randrange(10_000), policy=policy,
            )
            impl = scn.resolve_mapping().impl_of("t0")
            result = simulate(scn, PLATFORM)
            kinds = result.kind_counts()
            label = (pub_kind, n_hw, n_sw, reps, policy, impl)

            assert len(result.deliveries) == reps * (n_hw + n_sw), label
            assert all(d.latency_us > 0 for d in result.deliveries), label

            memif = kinds.get("MEMIF_TRANSFER", 0)
            if impl is TopicImpl.SMT:
                assert memif == reps * n_hw, label
            elif impl is TopicImpl.HMT:
                assert memif == 0, label
            else:
                assert memif == reps, label
                discards = kinds.get("GW_ACTION:DISCARD", 0)
                assert discards == kinds.get("GW_ACTION:PUBLISH_SMT", 0) + kinds.get(
                    "GW_ACTION:TRANSFER_TO_HMT", 0
                ), label

    @pytest.mark.parametrize("publisher_kind", ["hw", "sw"])
    def test_finished_engine_is_freed_without_the_cyclic_collector(self, publisher_kind):
        scn = star_scenario(publisher_kind, 4, 2, S_10US, reps=50, period_us=100.0, seed=1, policy=CLASSIFYING)
        collecting = gc.isenabled()
        gc.disable()
        try:
            sim = _Sim(scn.graph, scn.node_mapping, scn.resolve_mapping(PLATFORM), PLATFORM, seed=scn.seed)
            engine = weakref.ref(sim)
            result = sim.run(scn.workload)
            forwarded = "GW_ACTION:TRANSFER_TO_MAIN" if publisher_kind == "hw" else "GW_ACTION:TRANSFER_TO_HMT"
            assert result.kind_counts()[forwarded] == 50  # every message crossed the gateway
            del sim, result
            assert engine() is None
        finally:
            if collecting:
                gc.enable()

    def test_empty_workload_is_a_quiet_success(self):
        scn = dataclasses.replace(quiet("sw", 1, 1, S_1US), workload=())
        result = simulate(scn, PLATFORM)
        assert result.deliveries == []
        assert compute_stats(result) == []

    @pytest.mark.parametrize("size", [S_1US, S_10US, S_100US])
    def test_gateway_never_beats_smt_for_one_hw_subscriber(self, size):
        # with a single hardware subscriber the gateway only adds overhead
        smt = quiet("sw", 1, 0, size, policy=SMT)
        forced = quiet("sw", 1, 0, size, comm_mapping=CommMapping.from_dict({"t0": "GW"}))
        t_smt = simulate(smt, PLATFORM).deliveries[0].latency_us
        t_gw = simulate(forced, PLATFORM).deliveries[0].latency_us
        assert t_gw >= t_smt

    def test_hmt_rejects_software_endpoints(self):
        scn = quiet("hw", 1, 1, S_10US, comm_mapping=CommMapping.from_dict({"t0": "HMT"}))
        with pytest.raises(MappingError, match="software"):
            simulate(scn, PLATFORM)

    def test_gateway_rejects_uniform_topic(self):
        scn = quiet("hw", 2, 0, S_10US, comm_mapping=CommMapping.from_dict({"t0": "GW"}))
        with pytest.raises(MappingError, match="mixed"):
            simulate(scn, PLATFORM)

    def test_endpointless_smt_topic_is_legal(self):
        # only HMT and GW topics are classified; a topic nobody touches may sit on SMT
        with pytest.warns(DanglingTopicWarning):
            graph = ComputationGraph(
                nodes=("pub0", "sub0"),
                topics=(TopicSpec("idle", 100, 1.0), TopicSpec("t0", S_1US, 1.0)),
                pub_edges=(("pub0", "t0"),),
                sub_edges=(("t0", "sub0"),),
            )
        scn = Scenario(
            graph,
            NodeMapping.from_dict({"pub0": "SW", "sub0": "SW"}),
            (WorkloadItem("pub0", "t0"),),
            comm_mapping=CommMapping.from_dict({"idle": "SMT", "t0": "SMT"}),
        )
        assert [d.subscriber for d in simulate(scn, PLATFORM).deliveries] == ["sub0"]

    def test_workload_publisher_must_exist(self):
        scn = dataclasses.replace(
            quiet("hw", 1, 0, S_10US), workload=(WorkloadItem("ghost", "t0"),)
        )
        with pytest.raises(ScenarioError, match="ghost"):
            simulate(scn, PLATFORM)

    def test_workload_publisher_must_publish_topic(self):
        scn = dataclasses.replace(
            quiet("hw", 1, 0, S_10US), workload=(WorkloadItem("hw_sub_1", "t0"),)
        )
        with pytest.raises(ScenarioError, match="does not publish"):
            simulate(scn, PLATFORM)

    def test_code_built_items_are_checked_as_a_document_is(self):
        """A scenario built in code gets the document reader's checks and wording when it runs.

        A negative period ran time backwards, and a negative count next to a
        positive one moved the seq counter backwards.
        """
        period = re.escape("workload[0].period_us must be a number in [0, ") + r".*" + re.escape("), got -1000.0")
        with pytest.raises(ScenarioError, match=period):
            simulate(star_scenario("hw", 2, 1, 1000, reps=3, period_us=-1000.0, seed=1), PLATFORM)
        with pytest.raises(ScenarioError, match=re.escape("workload[0].count must be a non-negative integer, got -2")):
            simulate(star_scenario("hw", 2, 1, 1000, reps=-2, period_us=1000.0, seed=1), PLATFORM)
        graph, node_mapping = star_graph("hw", 2, 1, 1000)
        for bad, message in (
            (WorkloadItem("pub0", "t0", count=3, period_us=-1000.0), r"workload\[1\]\.period_us must be a number"),
            (WorkloadItem("pub0", "t0", count=-2), re.escape("workload[1].count must be a non-negative integer, got -2")),
            (WorkloadItem("pub0", "t0", size_bytes=-5), re.escape("workload[1].size_bytes must be a positive integer")),
        ):
            scn = Scenario(graph, node_mapping, (WorkloadItem("pub0", "t0", count=2), bad))
            with pytest.raises(ScenarioError, match=message):
                simulate(scn, PLATFORM)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("jitter_pct", 1.5, "jitter_pct must be a number in [0, 1), got 1.5"),
            ("jitter_pct", 1, "jitter_pct must be a number in [0, 1), got 1"),
            ("jitter_pct", -0.2, "jitter_pct must be a number in [0, 1), got -0.2"),
            ("jitter_pct", True, "jitter_pct must be a number in [0, 1), got True"),
            ("compute_us", {"gaussian_blur": -5000.0}, "compute_us.gaussian_blur must be a number in [0, "),
            ("compute_us", {"gaussian_blur": 1e308}, "compute_us.gaussian_blur must be a number in [0, "),
            ("compute_us", {"gausian_blur": 400.0}, "compute_us: unknown keys ['gausian_blur']"),
        ],
    )
    def test_code_built_jitter_and_compute_are_checked_as_a_document_is(self, data_dir, field, value, message):
        """A scenario built in code gets the reader's jitter and compute checks, in its wording, when it runs.

        A jitter of 1.5 ran trace time backwards and gave negative latencies,
        a negative one ran without jitter, a negative compute time ran a
        chain backwards, and a compute time under no node's name was priced
        nowhere.
        """
        doc = json.loads((data_dir / "chain_scenario.json").read_text(encoding="utf-8"))
        doc[field] = value
        with pytest.raises(ScenarioError) as read:
            scenario_from_json(json.dumps(doc), data_dir)
        chain = load_scenario(data_dir / "chain_scenario.json")
        built = dataclasses.replace(chain, **{field: tuple(value.items()) if field == "compute_us" else value})
        runs = [
            lambda: simulate(built, PLATFORM),
            lambda: run_chain_scenario(built, PLATFORM, chain.chain),
        ]
        if field == "jitter_pct":
            star = star_scenario("hw", 4, 2, 10_000, reps=50, period_us=100.0, seed=1, jitter_pct=value)
            runs.append(lambda: simulate(star, PLATFORM))
        for run in runs:
            with pytest.raises(ScenarioError) as ran:
                run()
            assert str(ran.value) == str(read.value)
        assert str(read.value).startswith(message)

    def test_largest_legal_jitter_runs_forward(self):
        result = simulate(star_scenario("hw", 4, 2, 10_000, reps=50, period_us=100.0, seed=1, jitter_pct=0.99), PLATFORM)
        assert len(result.deliveries) == 50 * 6
        assert all(d.t_deliver_ns >= d.t_pub_ns for d in result.deliveries)
        times = [ev.t_ns for ev in result.trace]
        assert times == sorted(times)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"chain": "blur", "jitter_pct": 1.5}, "chain: expected a list"),
            ({"seed": "one", "compute_us": {"gaussian_blur": -1.0}}, "seed must be"),
            ({"compute_us": {"gaussian_blur": -1.0}, "jitter_pct": 1.5}, "compute_us.gaussian_blur must be"),
        ],
    )
    def test_reader_reports_the_first_error_in_document_order(self, data_dir, fields, message):
        """The compute keys, the chain's type, the seed, the compute values and the jitter are read in that order."""
        doc = json.loads((data_dir / "chain_scenario.json").read_text(encoding="utf-8"))
        doc.update(fields)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario_from_json(json.dumps(doc), data_dir)

    def test_run_reports_chain_then_mapping_then_workload_errors(self, data_dir):
        """``simulate`` checks the chain, then the mapping, then the workload; compute times and jitter come first."""
        chain = load_scenario(data_dir / "chain_scenario.json")
        bad_workload = (WorkloadItem(chain.chain[0], "no_such_topic"),)
        bad_mapping = CommMapping(chain.resolve_mapping(PLATFORM).assignments[1:])
        cases = [
            (dict(chain=("nowhere",) + chain.chain, workload=bad_workload), "chain: ['nowhere'] name no node"),
            (dict(comm_mapping=bad_mapping, policy=None, workload=bad_workload), "comm_mapping must name exactly"),
            (dict(jitter_pct=1.5, chain=("nowhere",) + chain.chain), "jitter_pct must be"),
        ]
        for fields, message in cases:
            with pytest.raises(FieldError, match=re.escape(message)):
                simulate(dataclasses.replace(chain, **fields), PLATFORM)


def _endpointless_topic():
    with pytest.warns(DanglingTopicWarning):
        graph = ComputationGraph(
            nodes=("pub0", "sub0"),
            topics=(TopicSpec("idle", 100, 1.0), TopicSpec("t0", S_1US, 1.0)),
            pub_edges=(("pub0", "t0"),),
            sub_edges=(("t0", "sub0"),),
        )
    return graph, NodeMapping.from_dict({"pub0": "SW", "sub0": "HW"}), "idle"


# shape -> (graph, placement, topic under test), implementations that may carry it
LEGALITY_SHAPES = {
    "all_hw": (lambda: (*star_graph("hw", 2, 0, S_1US), "t0"), {TopicImpl.SMT, TopicImpl.HMT}),
    "all_sw": (lambda: (*star_graph("sw", 0, 2, S_1US), "t0"), {TopicImpl.SMT}),
    "mixed_hw_subs": (lambda: (*star_graph("sw", 2, 1, S_1US), "t0"), {TopicImpl.SMT, TopicImpl.GW}),
    "mixed_by_publisher": (lambda: (*star_graph("hw", 0, 1, S_1US), "t0"), {TopicImpl.SMT, TopicImpl.GW}),
    "endpointless": (_endpointless_topic, {TopicImpl.SMT}),
}


class TestOneLegalityRule:
    """The crossing count and the engine accept and reject the same mappings."""

    @pytest.mark.parametrize("impl", list(TopicImpl), ids=lambda impl: impl.value)
    @pytest.mark.parametrize("shape", sorted(LEGALITY_SHAPES))
    def test_crossings_reject_exactly_what_simulate_rejects(self, shape, impl):
        build, legal = LEGALITY_SHAPES[shape]
        graph, node_mapping, topic = build()
        comm_mapping = CommMapping(
            tuple((t, impl if t == topic else TopicImpl.SMT) for t in graph.topic_ids())
        )
        scn = Scenario(graph, node_mapping, (WorkloadItem("pub0", "t0"),), comm_mapping=comm_mapping)

        def accepted(run) -> bool:
            try:
                run()
            except MappingError:
                return False
            return True

        assert accepted(lambda: count_boundary_crossings(graph, node_mapping, comm_mapping)) is (impl in legal)
        assert accepted(lambda: simulate(scn, PLATFORM)) is (impl in legal)


class TestCostPickMatchesMap:
    """simulate resolves the cost policy from the platform it runs on, as map does."""

    @pytest.mark.parametrize(
        "platform",
        [PLATFORM, PlatformModel(hmt_bandwidth_bytes_per_s=4.8e9), PlatformModel(osif_roundtrip_us=60.0)],
        ids=["default", "hmt-4.8GBps", "osif-60us"],
    )
    def test_resolve_mapping_matches_map_communication(self, platform):
        cells = itertools.product(("hw", "sw"), (0, 1, 2), (1_000, 10_000, 100_000, 1_000_000), (1, 2, 4, 8))
        for pub_kind, n_sw, size, n_hw in cells:
            scn = star_scenario(
                pub_kind, n_hw, n_sw, size, reps=1, period_us=1.0, seed=0, policy=MappingPolicy.COST
            )
            expected, _ = map_communication(scn.graph, scn.node_mapping, MappingPolicy.COST, platform)
            assert scn.resolve_mapping(platform) == expected, (pub_kind, n_sw, size, n_hw)


class TestScenarioDocuments:
    def test_packaged_chain_scenario_loads(self, data_dir):
        scn = load_scenario(data_dir / "chain_scenario.json")
        assert scn.policy is CLASSIFYING
        assert scn.seed == 11
        assert scn.workload[0].publisher == "camera"
        assert scn.workload[0].count == 500
        assert dict(scn.compute_us)["image_compensation"] == 400.0
        assert scn.chain == ("camera", "image_compensation", "gaussian_blur", "lane_planner", "polyfit", "lane_control")

    def test_scenario_in_code_rejects_both_policy_and_mapping(self):
        # resolve_mapping would run on the mapping and drop the policy unsaid
        with pytest.raises(ScenarioError) as caught:
            star_scenario(
                "hw", 2, 0, 10000, 3, 1000.0, 1, policy=SMT, comm_mapping=CommMapping.from_dict({"t0": "HMT"})
            )
        assert str(caught.value) == "scenario: 'policy' and 'comm_mapping' exclude each other; give one of them"

    def test_scenario_in_code_rejects_both_grid_and_chain(self):
        # compare_grid would run the star cells and never check the chain
        graph, node_mapping = star_graph("hw", 2, 0, 10000)
        grid = GridSpec(publisher_kind="hw", sizes=(10000,), hw_sub_counts=(2,))
        with pytest.raises(ScenarioError) as caught:
            Scenario(graph=graph, node_mapping=node_mapping, workload=(), grid=grid, chain=("pub0", "hw_sub_1"))
        assert str(caught.value) == "scenario: 'grid' and 'chain' exclude each other; a grid's star cells have no chain"
        assert Scenario(graph=graph, node_mapping=node_mapping, workload=(), grid=grid).chain == ()

    @pytest.mark.parametrize("kind", ["HW", "gw", ""])
    def test_star_rejects_an_unknown_publisher_kind(self, kind):
        # a kind other than "hw" used to build a software publisher
        with pytest.raises(ScenarioError, match=f"publisher_kind must be 'hw' or 'sw', got {kind!r}"):
            star_scenario(kind, 2, 0, 1000, reps=1, period_us=1.0, seed=0)

    def test_packaged_grid_scenario_loads(self, data_dir):
        scn = load_scenario(data_dir / "grid_hw_publisher.json")
        grid = scn.grid
        assert grid is not None
        assert grid.publisher_kind == "hw"
        assert grid.hw_sub_counts == (2, 4, 8)
        assert grid.sw_sub_count == 0
        assert len(grid.sizes) == 4
        assert len(grid.sizes) * len(grid.hw_sub_counts) == 12

    def test_missing_graph_key(self, tmp_path):
        with pytest.raises(ScenarioError, match="graph"):
            scenario_from_json("{}", tmp_path)

    def test_graph_without_node_mapping(self, tmp_path):
        doc = {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "topics": [{"id": "t", "message_size_bytes": 8, "publish_rate_hz": 1}],
            "publishes": [{"node": "a", "topic": "t"}],
            "subscribes": [{"topic": "t", "node": "b"}],
        }
        import json

        (tmp_path / "g.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ScenarioError, match="node_mapping"):
            scenario_from_json('{"graph": "g.json"}', tmp_path)

    def test_unknown_policy(self, tmp_path, data_dir):
        import shutil

        shutil.copy(data_dir / "reference_graph.json", tmp_path / "g.json")
        with pytest.raises(ScenarioError, match="optimal"):
            scenario_from_json('{"graph": "g.json", "policy": "optimal"}', tmp_path)

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ScenarioError, match="line 1"):
            scenario_from_json("{nope", tmp_path)

    def test_workload_entry_needs_publisher_and_topic(self, tmp_path, data_dir):
        import shutil

        shutil.copy(data_dir / "reference_graph.json", tmp_path / "g.json")
        with pytest.raises(ScenarioError, match="workload"):
            scenario_from_json(
                '{"graph": "g.json", "workload": [{"topic": "A"}]}', tmp_path
            )


class TestCompareGrid:
    def grid_scenario(self, **kw):
        base = quiet("hw", 1, 0, S_10US)
        grid = GridSpec(
            publisher_kind="hw",
            sizes=(S_10US, S_100US),
            hw_sub_counts=(1, 2),
            sw_sub_count=kw.pop("sw_sub_count", 0),
            reps=2,
            period_us=300_000.0,
        )
        return dataclasses.replace(base, grid=grid, jitter_pct=kw.pop("jitter_pct", None))

    def test_fanout_takes_slowest_and_skips_partial_rounds(self):
        def arrive(sub, seq, t_ns):
            return Delivery("t0", sub, seq, 0, t_ns)

        result = SimResult(
            trace=[],
            deliveries=[
                arrive("a", 0, 10_000),
                arrive("b", 0, 12_000),
                arrive("c", 0, 9_000),
                arrive("a", 1, 11_000),
                arrive("c", 1, 8_000),  # b never saw round 1
            ],
            memif_segments=[],
        )
        assert _fanout_latencies(result, "t0", {"a", "b", "c"}) == [12.0]

    def test_header_names_both_policies(self):
        header, rows = compare_grid(self.grid_scenario(), PLATFORM, SMT, CLASSIFYING)
        assert header == [
            "publisher_kind",
            "size_bytes",
            "hw_subs",
            "t_hw_us_smt",
            "t_sw_us_smt",
            "t_hw_us_multi-hw-sub",
            "t_sw_us_multi-hw-sub",
            "speedup_hw",
            "speedup_sw",
        ]
        assert [(r[1], r[2]) for r in rows] == [
            (S_10US, 1),
            (S_10US, 2),
            (S_100US, 1),
            (S_100US, 2),
        ]
        for row in rows:
            assert row[0] == "hw"
            assert row[3] > 0 and row[5] > 0
            assert row[4] is None and row[6] is None and row[8] is None
            assert row[7] == pytest.approx(row[3] / row[5])

    def test_policies_see_identical_seeds(self):
        # same policy on both sides must cancel exactly, jitter and all
        header, rows = compare_grid(self.grid_scenario(), PLATFORM, SMT, SMT)
        for row in rows:
            assert row[7] == 1.0

    def test_csv_renders_missing_sides_empty(self):
        header, rows = compare_grid(self.grid_scenario(), PLATFORM, SMT, CLASSIFYING)
        lines = compare_to_csv(header, rows).splitlines()
        assert lines[0] == ",".join(header)
        first = lines[1].split(",")
        assert first[0] == "hw"
        assert first[4] == "" and first[6] == "" and first[8] == ""
        assert float(first[7]) > 0

    def test_grid_required(self):
        with pytest.raises(ScenarioError, match="grid"):
            compare_grid(quiet("hw", 1, 0, S_10US), PLATFORM, SMT, CLASSIFYING)


class TestCellTimes:
    @pytest.mark.parametrize("policy", [SMT, CLASSIFYING], ids=lambda p: p.value)
    def test_star_topic_need_not_be_t0(self, policy):
        original = quiet("sw", 2, 1, S_10US, reps=3, period_us=1000.0)
        graph = original.graph
        renamed = ComputationGraph(
            graph.nodes,
            (TopicSpec("camera", S_10US, 10.0),),
            (("pub0", "camera"),),
            tuple(("camera", n) for _, n in graph.sub_edges),
        )
        scn = dataclasses.replace(
            original, graph=renamed, workload=(WorkloadItem("pub0", "camera", count=3, period_us=1000.0),)
        )
        t_hw, t_sw = cell_times(scn, PLATFORM, policy)
        assert t_hw is not None and t_sw is not None
        assert (t_hw, t_sw) == cell_times(original, PLATFORM, policy)


class TestChains:
    def test_chain_relays_follow_topics(self, data_dir):
        scn = load_scenario(data_dir / "chain_scenario.json")
        relays, first, last = chain_relays(scn)
        assert first == "t_cam"
        assert last == "t_poly"
        assert set(relays) == {"image_compensation", "gaussian_blur", "lane_planner", "polyfit"}
        assert relays["image_compensation"].in_topic == "t_cam"
        assert relays["image_compensation"].out_topic == "t_img"
        assert relays["polyfit"].compute_ns == 156_000

    def test_chain_requires_connected_hops(self, data_dir):
        scn = load_scenario(data_dir / "chain_scenario.json")
        with pytest.raises(ScenarioError, match="polyfit"):
            chain_relays(dataclasses.replace(scn, chain=("camera", "polyfit")))

    def test_chain_run_is_reproducible(self, data_dir):
        scn = load_scenario(data_dir / "chain_scenario.json")
        scn = dataclasses.replace(
            scn, workload=(dataclasses.replace(scn.workload[0], count=30),)
        )
        a = run_chain_scenario(scn, PLATFORM, scn.chain)
        b = run_chain_scenario(scn, PLATFORM, scn.chain)
        c = run_chain_scenario(scn, PLATFORM, scn.chain, seed=99)
        assert a == b
        assert a != c
        mean, stddev = a
        assert mean > 0
        assert stddev >= 0

    def test_chain_without_deliveries_is_rejected(self, data_dir):
        scn = load_scenario(data_dir / "chain_scenario.json")
        scn = dataclasses.replace(scn, workload=tuple(dataclasses.replace(w, count=0) for w in scn.workload))
        with pytest.raises(ScenarioError, match="chain produced no end-to-end deliveries"):
            run_chain_scenario(scn, PLATFORM, scn.chain)

    def test_single_node_chain_costs_nothing(self):
        scn = quiet("sw", 0, 1, S_10US)
        assert run_chain_scenario(scn, PLATFORM, ["pub0"]) == (0.0, 0.0)

    def test_one_node_chain_naming_no_node_is_rejected(self, data_dir):
        scn = load_scenario(data_dir / "chain_scenario.json")
        with pytest.raises(ScenarioError, match="no_such_node"):
            run_chain_scenario(scn, PLATFORM, ["no_such_node"])
        assert run_chain_scenario(scn, PLATFORM, ["camera"]) == (0.0, 0.0)

    def test_degenerate_chains_rejected(self):
        scn = quiet("sw", 0, 1, S_10US)
        with pytest.raises(ScenarioError, match="at least one"):
            run_chain_scenario(scn, PLATFORM, [])
        with pytest.raises(ScenarioError, match="at least two"):
            chain_relays(dataclasses.replace(scn, chain=("pub0",)))

    def test_two_node_software_chain_closed_form(self):
        # one SMT hop between software nodes: intercept plus per-byte charge
        scn = quiet("sw", 0, 1, S_10US, reps=4)
        mean, stddev = run_chain_scenario(scn, PLATFORM, ["pub0", "sw_sub_1"])
        assert mean == pytest.approx(10.0 + 0.009 * S_10US)
        assert stddev == 0.0

    def test_chain_naming_a_node_twice_is_rejected(self):
        # B relays t1 -> t2 and t3 -> t4: one relay table entry would silently replace the other
        graph, mapping = software_graph(
            [("A", "t1"), ("B", "t2"), ("C", "t3"), ("B", "t4")],
            [("t1", "B"), ("t2", "C"), ("t3", "B"), ("t4", "D")],
        )
        with pytest.raises(ScenarioError, match="names a node twice"):
            chain_relays(Scenario(graph, mapping, (), chain=("A", "B", "C", "B", "D")))

    def test_chain_repeating_a_hop_topic_is_rejected(self):
        # C subscribes to and publishes t2, so as a relay it would feed itself without end
        graph, mapping = software_graph([("A", "t1"), ("B", "t2"), ("C", "t2")], [("t1", "B"), ("t2", "C"), ("t2", "D")])
        scn = Scenario(graph, mapping, (WorkloadItem("A", "t1"),), jitter_pct=0.0, chain=("A", "B", "C", "D"))
        with pytest.raises(ScenarioError, match="repeats a hop topic"):
            chain_relays(scn)
        with pytest.raises(ScenarioError, match="repeats a hop topic"):
            run_chain_scenario(scn, PLATFORM, ["A", "B", "C", "D"])

    def test_workload_on_a_relayed_topic_is_rejected(self):
        # X's t2#k and B's relayed t2#k would be one (topic, seq), so C would get t2#0 twice
        graph, mapping = software_graph([("A", "t1"), ("B", "t2"), ("X", "t2")], [("t1", "B"), ("t2", "C")])
        from_a = WorkloadItem("A", "t1", count=4, period_us=10_000.0)
        scn = Scenario(graph, mapping, (from_a,), compute_us=(("B", 5000.0),), jitter_pct=0.0)
        # each SMT hop is 10 + 0.009 * 1000 = 19 us
        assert run_chain_scenario(scn, PLATFORM, ["A", "B", "C"]) == (19.0 + 5000.0 + 19.0, 0.0)
        from_x = WorkloadItem("X", "t2", count=4, period_us=12_000.0)
        with pytest.raises(ScenarioError, match="published by chain relay 'B'"):
            run_chain_scenario(dataclasses.replace(scn, workload=(from_a, from_x)), PLATFORM, ["A", "B", "C"])
        # a scenario that declares the chain is checked by every run of it
        declared = dataclasses.replace(scn, workload=(from_a, from_x), chain=("A", "B", "C"))
        with pytest.raises(ScenarioError, match="published by chain relay 'B'"):
            simulate(declared, PLATFORM)

    def test_workload_on_the_first_hop_topic_from_another_node_is_rejected(self):
        # a (HW) and b (SW) both publish t; latencies are keyed by seq on t, so b's messages would count as a's
        graph = ComputationGraph(
            ("a", "b", "c"), (TopicSpec("t", S_10US, 10.0),), (("a", "t"), ("b", "t")), (("t", "b"), ("t", "c"))
        )
        node_mapping = NodeMapping.from_dict({"a": "HW", "b": "SW", "c": "HW"})
        from_a, from_b = WorkloadItem("a", "t"), WorkloadItem("b", "t")
        for workload in ((from_b,), (from_a, from_b)):
            scn = Scenario(graph, node_mapping, workload, jitter_pct=0.0)
            with pytest.raises(ScenarioError, match="topic 't' starts the chain at 'a', so 'b' may not publish it"):
                run_chain_scenario(scn, PLATFORM, ["a", "b"])
            with pytest.raises(ScenarioError, match="topic 't' starts the chain at 'a', so 'b' may not publish it"):
                simulate(dataclasses.replace(scn, chain=("a", "b")), PLATFORM)
        scn = Scenario(graph, node_mapping, (from_a,), jitter_pct=0.0)
        mean, _ = run_chain_scenario(scn, PLATFORM, ["a", "b"])
        (delivery,) = [d for d in simulate(scn, PLATFORM).deliveries if d.subscriber == "b"]
        assert mean == delivery.latency_us


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM on this platform")
def test_each_test_runs_under_an_alarm():
    # a loop that stops advancing fails its own test instead of the whole run
    remaining = signal.alarm(0)
    signal.alarm(remaining)
    assert 0 < remaining <= 120

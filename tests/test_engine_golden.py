"""Golden digests of the engine's output, byte for byte.

Each case pins the sha256 of the trace CSV, the MEMIF segment list and the
deliveries of one simulation (or of one grid's compare CSV). The digests
were taken before the engine's inner loop was rewritten for speed; any
change to event order, tie-breaking, the MEMIF pool's float arithmetic or
the jitter draw sequence shows up here as a mismatch.

Each simulation also pins an id-free digest: the same record without the
trace's ``message_id`` column. A change to how messages are named moves
only the full digest; a change to what the engine did moves both.
"""

import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from topomap import gateway
from topomap.graph import ComputationGraph, NodeMapping, Placement, TopicSpec
from topomap.mapping import CommMapping, MappingPolicy, TopicImpl
from topomap.platform_model import PlatformModel
from topomap.scenario import Scenario, WorkloadItem, load_scenario, star_graph, star_scenario
from topomap.simulator import compare_grid, compare_to_csv, simulate, trace_to_csv

PLATFORM = PlatformModel()
SMT = MappingPolicy.ALWAYS_SMT
GW = MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB


def result_digest(result) -> str:
    h = hashlib.sha256()
    h.update(trace_to_csv(result).encode())
    h.update(repr(result.memif_segments).encode())
    rows = [(d.topic, d.subscriber, d.seq, d.t_pub_ns, d.t_deliver_ns) for d in result.deliveries]
    h.update(repr(rows).encode())
    return h.hexdigest()


def id_free_digest(result) -> str:
    h = hashlib.sha256()
    h.update(repr([(t_ns, kind, endpoint) for t_ns, kind, _, endpoint in result.trace]).encode())
    h.update(repr(result.memif_segments).encode())
    rows = [(d.topic, d.subscriber, d.seq, d.t_pub_ns, d.t_deliver_ns) for d in result.deliveries]
    h.update(repr(rows).encode())
    return h.hexdigest()


def digests(result) -> tuple[str, str]:
    """(full, id-free) digests of one simulation."""
    return result_digest(result), id_free_digest(result)


def star(kind, hw_subs, sw_subs, policy, reps, period_us, seed, jitter_pct=None):
    scenario = star_scenario(
        kind, hw_subs, sw_subs, 100_000, reps, period_us, seed, policy=policy, jitter_pct=jitter_pct
    )
    return simulate(scenario, PLATFORM)


@pytest.mark.parametrize(
    "args, digest, id_free",
    [
        # every HW subscriber pulls over MEMIF at once: up to 32 equal-share flows
        (
            ("hw", 32, 4, SMT, 40, 5000.0, 3, 0.05),
            "e565ac8a89d21e218ab6dd02d6eb96abf3422da40d975cec6e6a8c9fea8dafa1",
            "289817b1bca2eb4321b5ce44f42e6872f6068e59bf90351e8352dbc1215409a9",
        ),
        # gateway path: transfer-to-HMT, loop-back and the cancellable read
        (
            ("sw", 16, 8, GW, 40, 5000.0, 4),
            "e0532cefa65ed8d164fd5c77be540c7bf65b2839488f75952db0fd8b4208cc0f",
            "7fd88f38072fb42a99778e604880d12d485ad197b139f0f2d0bfbe8443426fba",
        ),
        # saturated pool: messages arrive faster than 64 pulls drain, flows pile up
        (
            ("sw", 64, 64, SMT, 6, 100.0, 5),
            "9345e7a728c650f02148605005be73b7a18e435fb4cb4a763d7b12c7acdc6901",
            "b41c93a05108424744b7b4b502f6cbdec9b0d0b21c4712c7bd2c84a90cb206d6",
        ),
        # the gateway publishes each HMT message on SMT to four software subscribers at once
        (
            ("hw", 8, 4, GW, 40, 5000.0, 11, 0.05),
            "81b3147d015b17d1875deecca347ea3e47cfa8d41663e9895ece68c5017a337e",
            "ae621d9f17485559f60db2084b608098aeb0adb87c0d21971a50879e2020a285",
        ),
    ],
    ids=["hw32_sw4_smt_jitter", "sw16_sw8_gw", "sw64_sw64_smt_saturated", "hw8_sw4_gw_jitter"],
)
def test_star(args, digest, id_free):
    assert digests(star(*args)) == (digest, id_free)


@pytest.mark.parametrize(
    "policy, digest, id_free",
    [
        (
            SMT,
            "c29fc67d6f9be6c7bd6808f2f276504a0c5b636f4d5980ba29bab27fa025757f",
            "087c818852372b3c9d7d70bfeec3ac87ad22b0bfe4421aa66a956742c85c0e42",
        ),
        (
            GW,
            "4425b38f17c1b23ba9816716bb2ccd3f8653ef4522835602c02aa42fe807c655",
            "8636debc479e9a69e27ea4fabb2ac36ab1cfde523d77eee7800c700656a143ab",
        ),
    ],
    ids=["smt", "multi-hw-sub"],
)
def test_packaged_chain_with_relays(data_dir, policy, digest, id_free):
    scenario = load_scenario(data_dir / "chain_scenario.json")
    result = simulate(replace(scenario, policy=policy), PLATFORM)
    assert digests(result) == (digest, id_free)


@pytest.mark.parametrize(
    "policy, digest, id_free",
    [
        (
            SMT,
            "5da5b29f68b755517ee53a8de923b5d4bc9565c076a7258f800dc4629a2201da",
            "5c3810eb93811f89e9193eef296e1d7f44d0f93f97f3c55a279740b3a3664e68",
        ),
        (
            GW,
            "185a4bab0bebbb2c29365e793deca76fca4dacfb030aad7713ed1f3a5fd56461",
            "ceb72d44dd2c4b327cb0a69ddcfbbb95e896b7c24492726945f569260cfc88d5",
        ),
    ],
    ids=["smt", "multi-hw-sub"],
)
def test_packaged_chain_with_zero_compute_relays(data_dir, policy, digest, id_free):
    """Each relay republishes on the nanosecond its input is delivered."""
    scenario = load_scenario(data_dir / "chain_scenario.json")
    result = simulate(replace(scenario, policy=policy, compute_us=()), PLATFORM)
    assert digests(result) == (digest, id_free)


def test_two_items_publish_on_the_same_nanosecond():
    """Two topics, same period, no jitter: every publication ties with the other item's.

    Ties run in the order the workload items are listed, and both topics'
    pulls share the MEMIF pool.
    """
    hw, sw = Placement.HW, Placement.SW
    placements = {"cam": hw, "ctl": sw, "hw_a": hw, "hw_b": hw, "sw_a": sw}
    graph = ComputationGraph(
        nodes=tuple(placements),
        topics=(TopicSpec("img", 60_000, 10.0), TopicSpec("cmd", 30_000, 10.0)),
        pub_edges=(("cam", "img"), ("ctl", "cmd")),
        sub_edges=(("img", "hw_a"), ("img", "hw_b"), ("img", "sw_a"), ("cmd", "hw_a"), ("cmd", "hw_b")),
    )
    scenario = Scenario(
        graph=graph,
        node_mapping=NodeMapping(tuple(placements.items())),
        workload=(WorkloadItem("cam", "img", 30, 80.0), WorkloadItem("ctl", "cmd", 30, 80.0)),
        seed=2,
        comm_mapping=CommMapping((("img", TopicImpl.SMT), ("cmd", TopicImpl.SMT))),
        jitter_pct=0.0,
    )
    digest = "5a9a66d1ff7b21733f0893ae8ac95e6dcb54bf14a463e2816b4956e74714e7a0"
    id_free = "4faa2265d4720573f5995cf8faa89285a259dbd80fd1e753ea5a00cab0128a2e"
    assert digests(simulate(scenario, PLATFORM)) == (digest, id_free)


def test_software_copies_tie_with_a_hardware_fanout():
    """A software fan-out's first reader is ready while another publication is still due.

    ``ctl`` is listed first, so each period it publishes first, and its
    slot-0 pull is ready on the nanosecond ``cam``'s publication is still
    waiting on the heap under an earlier seq. The pull must wait its turn:
    run at once, it would take its jitter draw before ``cam``'s.
    """
    hw, sw = Placement.HW, Placement.SW
    placements = {"cam": hw, "ctl": sw, "hw_a": hw, "hw_b": hw, "sw_a": sw}
    graph = ComputationGraph(
        nodes=tuple(placements),
        topics=(TopicSpec("cmd", 30_000, 10.0), TopicSpec("img", 60_000, 10.0)),
        pub_edges=(("ctl", "cmd"), ("cam", "img")),
        sub_edges=(("cmd", "hw_a"), ("cmd", "hw_b"), ("cmd", "sw_a"), ("img", "hw_a"), ("img", "sw_a")),
    )
    scenario = Scenario(
        graph=graph,
        node_mapping=NodeMapping(tuple(placements.items())),
        workload=(WorkloadItem("ctl", "cmd", 30, 500.0), WorkloadItem("cam", "img", 30, 500.0)),
        seed=3,
        comm_mapping=CommMapping((("cmd", TopicImpl.SMT), ("img", TopicImpl.SMT))),
        jitter_pct=0.05,
    )
    digest = "4f90929cd61e911079df7ea391b96baa4243d1d78d8c4591ed395ea514f70d71"
    id_free = "38b9db0bcf3a309f7e7190a24a2157cea605d4a8277d48e5cb3c0a9bd717d38f"
    assert digests(simulate(scenario, PLATFORM)) == (digest, id_free)


def test_pull_finishes_alone_while_a_hop_is_due():
    """No jitter: a pull finishes alone on the nanosecond another reader's copy row is due.

    ``hw_b``'s pull of ``b`` finishes alone when ``sw_a``'s ``SW_COPY`` row
    of the same message is due, pushed after the pool last rescheduled. The
    row runs after the completion and before the delivery it schedules.
    """
    hw, sw = Placement.HW, Placement.SW
    placements = {"p1": sw, "p2": sw, "hw_a": hw, "hw_b": hw, "sw_a": sw}
    graph = ComputationGraph(
        nodes=tuple(placements),
        topics=(TopicSpec("a", 30_000, 10.0), TopicSpec("b", 12_000, 10.0)),
        pub_edges=(("p1", "a"), ("p2", "b")),
        sub_edges=(("a", "hw_a"), ("b", "hw_b"), ("b", "sw_a")),
    )
    scenario = Scenario(
        graph=graph,
        node_mapping=NodeMapping(tuple(placements.items())),
        workload=(WorkloadItem("p1", "a", 20, 40.0), WorkloadItem("p2", "b", 20, 40.0)),
        seed=27,
        comm_mapping=CommMapping((("a", TopicImpl.SMT), ("b", TopicImpl.SMT))),
        jitter_pct=0.0,
    )
    digest = "f9e6277dbb1b3f5f10a7f8f47e4e0806e23ab8fc145eeb7343aa43652635c020"
    id_free = "04b90e244283be5d185fceedf078f441e29debf51598cb3a58281e67fa4a3a03"
    assert digests(simulate(scenario, PLATFORM)) == (digest, id_free)


def test_zero_period_publishes_everything_at_once():
    scenario = star_scenario("sw", 6, 3, 50_000, 25, 0.0, 6, policy=SMT)
    digest = "b98d5cf7ba69dc2f3a9a91a40f970f0976d26b5606949b5a78f3671040b2e773"
    id_free = "c4e16538bca242d3c3ad5125ecaa9489fad1907b8d12e3e95c3b8b37f53b4f1f"
    assert digests(simulate(scenario, PLATFORM)) == (digest, id_free)


@pytest.mark.parametrize(
    "policy, digest, id_free",
    [
        (
            SMT,
            "8d180458f0ad4d84dff0f6731e77f70f81f6e94c6a9de15d9cedead00b6a8a8d",
            "5a26f3a39dd31c7e188b968b2f71d2e465d9eded31fe2597d36a005c4c9f20d0",
        ),
        (
            GW,
            "cf361022215cab827e4f914be0b61f42aa0a08c0ec588d03e5ecc8a5c9b3b081",
            "f568bdfbd5aac570f3324d82da1ef0ba12007ea39f3a984a7d02c039dbd3810f",
        ),
    ],
    ids=["smt", "multi-hw-sub"],
)
def test_workload_size_overrides_the_topic_size(policy, digest, id_free):
    """A software publisher's 37 kB messages on a topic declared at 100 kB."""
    graph, node_mapping = star_graph("sw", 5, 3, 100_000)
    scenario = Scenario(
        graph=graph,
        node_mapping=node_mapping,
        workload=(WorkloadItem("pub0", "t0", 30, 400.0, size_bytes=37_000),),
        seed=7,
        policy=policy,
    )
    assert digests(simulate(scenario, PLATFORM)) == (digest, id_free)


def test_compare_grid_csv(data_dir):
    scenario = load_scenario(data_dir / "grid_hw_publisher_sw_sub.json")
    csv = compare_to_csv(*compare_grid(scenario, PLATFORM, SMT, GW))
    digest = "e4ce53d423216191848475b799d9b528974869179c26eedc0fb97b21639c11b2"
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def test_gateway_fires_every_rule(monkeypatch):
    """Publishers on both sides of one GW topic, so HMT arrivals race open reads.

    A cancel that lands while a read's response is in flight returns that
    read, whose message is either forwarded or discarded as the gateway's own
    loop-back: the two raced-cancel rules fire here and in no other case.
    """
    fired = Counter()
    step = gateway.step

    def counting_step(state, event):
        new, actions = step(state, event)
        kinds = tuple(gateway._ACTION_KIND[type(a)] for a in actions)
        fired[(state.phase.value, gateway._EVENT_KIND[type(event)], kinds)] += 1
        return new, actions

    monkeypatch.setattr(gateway, "step", counting_step)
    hw, sw = Placement.HW, Placement.SW
    placements = {"hw_pub": hw, "sw_pub": sw, "hw_sub_1": hw, "hw_sub_2": hw, "sw_sub_1": sw}
    graph = ComputationGraph(
        nodes=tuple(placements),
        topics=(TopicSpec("t", 20_000, 10.0),),
        pub_edges=(("hw_pub", "t"), ("sw_pub", "t")),
        sub_edges=(("t", "hw_sub_1"), ("t", "hw_sub_2"), ("t", "sw_sub_1")),
    )
    scenario = Scenario(
        graph=graph,
        node_mapping=NodeMapping(tuple(placements.items())),
        workload=(WorkloadItem("hw_pub", "t", 40, 130.0), WorkloadItem("sw_pub", "t", 40, 170.0)),
        seed=9,
        comm_mapping=CommMapping((("t", TopicImpl.GW),)),
        jitter_pct=0.05,
    )
    result = simulate(scenario, PLATFORM)
    rules = gateway.transition_table()["rules"]
    counts = [fired[(r["phase"], r["event"], tuple(kind for kind, _ in r["actions"]))] for r in rules]
    assert counts == [1, 32, 20, 40, 40, 12, 8, 20]  # table order; the last two are the raced cancels
    digest = "bdee6068980e2355fc23bb7a71a52581fb047edb5395110cfde96dddbd4aa03d"
    id_free = "f8c5be4243d6e49d3a68b41eacb309490616b80d235653886b9c17d1c2d9dc67"
    assert digests(result) == (digest, id_free)


def test_loaned_fanouts_tie_with_other_topics_events():
    """No jitter: two hardware publications on SMT are ready on the same nanosecond, every period.

    ``a``'s pulls are ready on the nanosecond ``b``'s publication and pulls
    are, and ``a``'s software subscribers take delivery on the nanosecond
    ``b``'s do and ``ctl``'s next message reaches ``sw_2``, a delivery
    scheduled after both fan-outs. Each runs in its own ``(time, seq)``
    place, ``a`` before ``b`` before ``ctl``, and ``b``'s software
    subscribers in copy order (``sw_1`` before ``sw_3``, though ``b`` lists
    ``sw_3`` first). On ``g`` the gateway publishes each message on SMT to
    two software subscribers.
    """
    hw, sw = Placement.HW, Placement.SW
    placements = {"cam_a": hw, "cam_b": hw, "cam_g": hw, "ctl": sw, "hw_1": hw, "hw_2": hw, "hw_3": hw}
    placements.update(sw_1=sw, sw_2=sw, sw_3=sw)
    subscribers = {
        "a": ("hw_1", "hw_2", "sw_1", "sw_2"),
        "b": ("hw_1", "hw_3", "sw_3", "sw_1"),
        "c": ("sw_2",),
        "g": ("hw_2", "hw_3", "sw_2", "sw_3"),
    }
    graph = ComputationGraph(
        nodes=tuple(placements),
        # a 40 kB fan-out delivers 38 + 370 us after its publication, an 11 kB message 109 us after,
        # so ``ctl``'s message k + 1 reaches ``sw_2`` on the nanosecond ``a``'s message k does
        topics=tuple(TopicSpec(t, 11_000 if t == "c" else 40_000, 10.0) for t in subscribers),
        pub_edges=(("cam_a", "a"), ("cam_b", "b"), ("ctl", "c"), ("cam_g", "g")),
        sub_edges=tuple((t, sub) for t, subs in subscribers.items() for sub in subs),
    )
    scenario = Scenario(
        graph=graph,
        node_mapping=NodeMapping(tuple(placements.items())),
        workload=tuple(WorkloadItem(pub, t, 20, 299.0) for pub, t in graph.pub_edges),
        seed=12,
        comm_mapping=CommMapping(tuple((t, TopicImpl.GW if t == "g" else TopicImpl.SMT) for t in subscribers)),
        jitter_pct=0.0,
    )
    digest = "4bf97f39b8d62139820a3fc98cb0705292e983579f75df8a53c296dee31abf9f"
    id_free = "c9b234032a959edf94c2e0a8cd54bdca55a1c133b962109b9bdfe1bf2b09d2ab"
    assert digests(simulate(scenario, PLATFORM)) == (digest, id_free)

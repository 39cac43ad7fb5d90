"""Golden digests of the engine's output, byte for byte.

Each case pins the sha256 of the trace CSV, the MEMIF segment list and the
deliveries of one simulation (or of one grid's compare CSV). The digests
were taken before the engine's inner loop was rewritten for speed; any
change to event order, tie-breaking, the MEMIF pool's float arithmetic or
the jitter draw sequence shows up here as a mismatch.
"""

import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from topomap import gateway
from topomap.graph import ComputationGraph, NodeMapping, Placement, TopicSpec
from topomap.mapping import CommMapping, MappingPolicy, TopicImpl
from topomap.platform_model import PlatformModel
from topomap.simulator import (
    Scenario,
    WorkloadItem,
    chain_relays,
    compare_grid,
    compare_to_csv,
    load_scenario,
    simulate,
    star_graph,
    star_scenario,
    trace_to_csv,
)

PLATFORM = PlatformModel()
SMT = MappingPolicy.ALWAYS_SMT
GW = MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB
CHAIN = ["camera", "image_compensation", "gaussian_blur", "lane_planner", "polyfit", "lane_control"]


def result_digest(result) -> str:
    h = hashlib.sha256()
    h.update(trace_to_csv(result).encode())
    h.update(repr(result.memif_segments).encode())
    rows = [(d.topic, d.subscriber, d.seq, d.t_pub_ns, d.t_deliver_ns) for d in result.deliveries]
    h.update(repr(rows).encode())
    return h.hexdigest()


def star(kind, hw_subs, sw_subs, policy, reps, period_us, seed, jitter_pct=None):
    scenario = star_scenario(
        kind, hw_subs, sw_subs, 100_000, reps, period_us, seed, policy=policy, jitter_pct=jitter_pct
    )
    return simulate(scenario, PLATFORM)


@pytest.mark.parametrize(
    "args, digest",
    [
        # every HW subscriber pulls over MEMIF at once: up to 32 equal-share flows
        (("hw", 32, 4, SMT, 40, 5000.0, 3, 0.05), "5e7467f938c6b4cdb16c9d27f0456accb3d9d0ef199c79e86c9cb6f265444299"),
        # gateway path: transfer-to-HMT, loop-back and the cancellable read
        (("sw", 16, 8, GW, 40, 5000.0, 4), "370d016257290f80cd33d9e0de5a8dd63552730edccc4d3008981867ec6b7e4f"),
        # saturated pool: messages arrive faster than 64 pulls drain, flows pile up
        (("sw", 64, 64, SMT, 6, 100.0, 5), "7c546289c07931a2f1c7b7a8763a9aa553dbbd31a016e349b69c73809b62f19d"),
        # the gateway publishes each HMT message on SMT to four software subscribers at once
        (("hw", 8, 4, GW, 40, 5000.0, 11, 0.05), "5573be9fd8beb7ce0cd44bf1b7340188e5eea664476cd69fe7bfe65c93245303"),
    ],
    ids=["hw32_sw4_smt_jitter", "sw16_sw8_gw", "sw64_sw64_smt_saturated", "hw8_sw4_gw_jitter"],
)
def test_star(args, digest):
    assert result_digest(star(*args)) == digest


@pytest.mark.parametrize(
    "policy, digest",
    [
        (SMT, "eb882e5f4162cda4f2144fdeb5b12d92f70728a899dbe3ba10ea98b9f23720d7"),
        (GW, "f3f97b2f592cb9cdd69c359f1ec500191d346cbe971ff986283f3f4a00ec0380"),
    ],
    ids=["smt", "multi-hw-sub"],
)
def test_packaged_chain_with_relays(data_dir, policy, digest):
    scenario = load_scenario(data_dir / "chain_scenario.json")
    relays, _, _ = chain_relays(scenario.graph, CHAIN, dict(scenario.compute_us))
    result = simulate(replace(scenario, policy=policy), PLATFORM, relays=relays)
    assert result_digest(result) == digest


@pytest.mark.parametrize(
    "policy, digest",
    [
        (SMT, "391f2a78af46999f7124918b175fa38a2632078faef18a577984d18205b141fc"),
        (GW, "31696ce1252e6a9cd7fa5e80fe75cc7eab887bcd54ec5646acc79b0941c2a497"),
    ],
    ids=["smt", "multi-hw-sub"],
)
def test_packaged_chain_with_zero_compute_relays(data_dir, policy, digest):
    """Each relay republishes on the nanosecond its input is delivered."""
    scenario = load_scenario(data_dir / "chain_scenario.json")
    relays, _, _ = chain_relays(scenario.graph, CHAIN, {})
    result = simulate(replace(scenario, policy=policy), PLATFORM, relays=relays)
    assert result_digest(result) == digest


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
    digest = "696a7a64c1dbfd5a6ced17627912b6a2f9a7acc717f807edbbe25932e1f73b28"
    assert result_digest(simulate(scenario, PLATFORM)) == digest


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
    digest = "1175ee962366ba0d9219a70350b4a55640dff75a99cd2c9681c78fa0dc5aaaf0"
    assert result_digest(simulate(scenario, PLATFORM)) == digest


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
    digest = "60a1a4e399d1f839c8ca528d9cc5efa512d3ae6364c0ef4ae0891661886a0936"
    assert result_digest(simulate(scenario, PLATFORM)) == digest


def test_zero_period_publishes_everything_at_once():
    scenario = star_scenario("sw", 6, 3, 50_000, 25, 0.0, 6, policy=SMT)
    digest = "3f0bf0270f9ff0f853898b8863010c3e5681991b77f1c16eab19b3a7c810b449"
    assert result_digest(simulate(scenario, PLATFORM)) == digest


@pytest.mark.parametrize(
    "policy, digest",
    [
        (SMT, "0706ea5932731972f9709b757d069527f024beec63e0e3abb87de49dc241c319"),
        (GW, "90b70ad58d0133f115f18609799328a25b34706e2c43809d7d0e6699503865cc"),
    ],
    ids=["smt", "multi-hw-sub"],
)
def test_workload_size_overrides_the_topic_size(policy, digest):
    """A software publisher's 37 kB messages on a topic declared at 100 kB."""
    graph, node_mapping = star_graph("sw", 5, 3, 100_000)
    scenario = Scenario(
        graph=graph,
        node_mapping=node_mapping,
        workload=(WorkloadItem("pub0", "t0", 30, 400.0, size_bytes=37_000),),
        seed=7,
        policy=policy,
    )
    assert result_digest(simulate(scenario, PLATFORM)) == digest


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
    assert result_digest(result) == "57cd21ade5d929613fce0e578d08382ca83a54f9ccea412ef30bf2b695585022"

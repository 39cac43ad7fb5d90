"""The latency model against the engine, to the nanosecond.

``predict_latency_ns`` prices one isolated, jitter-free message without
running the engine. Each case here simulates the same message and asserts
that every subscriber's ``t_deliver_ns - t_pub_ns`` equals the prediction
exactly: there is no tolerance. The ``cost`` policy picks with this model,
so on the regret grid its pick must be the faster simulated transport.
"""

import gc
import heapq
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from topomap.mapping import CommMapping, MappingPolicy, TopicClass, TopicImpl, map_communication, topic_endpoints
from topomap.platform_model import PlatformModel
from topomap.scenario import star_scenario
from topomap.simulator import simulate
from topomap import timing
from topomap.timing import _bytes_ns, _us_to_ns, predict_latency_ns


def legal_impls(endpoints) -> list[TopicImpl]:
    impls = [TopicImpl.SMT]
    if endpoints.has_endpoints:
        impls += {TopicClass.ALL_HW: [TopicImpl.HMT], TopicClass.MIXED: [TopicImpl.GW]}.get(endpoints.topic_class, [])
    return impls


def assert_matches_engine(publisher_kind, hw_subs, sw_subs, size_bytes, platform, impls=None):
    """Predict and simulate one message on every legal (or every given) impl; returns the predictions."""
    star = star_scenario(publisher_kind, hw_subs, sw_subs, size_bytes, reps=1, period_us=1.0, seed=0, jitter_pct=0.0)
    endpoints = topic_endpoints(star.graph, star.node_mapping, "t0")
    predicted = {}
    for impl in impls or legal_impls(endpoints):
        result = simulate(replace(star, comm_mapping=CommMapping((("t0", impl),))), platform)
        simulated = {d.subscriber: d.t_deliver_ns - d.t_pub_ns for d in result.deliveries}
        predicted[impl] = predict_latency_ns(endpoints, "pub0", impl, size_bytes, platform)
        assert predicted[impl] == simulated, impl
    return predicted


@st.composite
def platforms(draw):
    """Float platforms over wide ranges, or platforms with integer fields only."""
    if draw(st.booleans()):
        memif = draw(st.integers(1, 10**11))
        times = st.integers(1, 10**4)
        return PlatformModel(
            memif_bandwidth_bytes_per_s=memif,
            hmt_bandwidth_bytes_per_s=memif + draw(st.integers(0, 10**11)),
            osif_roundtrip_us=draw(times),
            delegate_publish_us=draw(times),
            sw_dds_intercept_us=draw(times),
            sw_dds_us_per_byte=draw(st.integers(1, 10)),
            sw_copy_bandwidth_bytes_per_s=draw(st.integers(1, 10**11)),
        )
    memif = draw(st.floats(1e3, 1e11))
    times = st.floats(1e-3, 1e4)
    return PlatformModel(
        memif_bandwidth_bytes_per_s=memif,
        hmt_bandwidth_bytes_per_s=memif * draw(st.floats(1.0, 10.0)),
        osif_roundtrip_us=draw(times),
        delegate_publish_us=draw(times),
        sw_dds_intercept_us=draw(times),
        sw_dds_us_per_byte=draw(st.floats(1e-6, 1.0)),
        # equal copy and pull bandwidths line pulls up on the nanosecond the pool drains
        sw_copy_bandwidth_bytes_per_s=draw(st.one_of(st.just(memif), st.floats(1e3, 1e11))),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    publisher_kind=st.sampled_from(["hw", "sw"]),
    # hw_sub_10 to hw_sub_12 sort before hw_sub_2, so copy slots follow ids, not numbers
    hw_subs=st.integers(0, 12),
    sw_subs=st.integers(0, 3),
    size_bytes=st.one_of(st.integers(1, 2**20), st.integers(1, 2**52), st.integers(0, 52).map(lambda e: 2**e)),
    platform=platforms(),
)
@pytest.mark.filterwarnings("ignore::topomap.graph.DanglingTopicWarning")
def test_prediction_equals_engine_on_random_stars(publisher_kind, hw_subs, sw_subs, size_bytes, platform):
    assert_matches_engine(publisher_kind, hw_subs, sw_subs, size_bytes, platform)


# the cost-regret grid: hw/sw publisher x 0-2 SW subscribers x 1 kB-1 MB x 1-8
# HW subscribers, less the 16 all-HW cells of a hw publisher without SW subscribers
REGRET_CELLS = [
    (pub, n_hw, n_sw, size)
    for pub in ("hw", "sw")
    for n_sw in (0, 1, 2)
    if not (pub == "hw" and n_sw == 0)
    for size in (1_000, 10_000, 100_000, 1_000_000)
    for n_hw in (1, 2, 4, 8)
]


def test_regret_grid_has_eighty_cells():
    assert len(REGRET_CELLS) == 80


@pytest.mark.parametrize("pub, n_hw, n_sw, size", REGRET_CELLS)
def test_prediction_equals_engine_on_regret_grid(pub, n_hw, n_sw, size):
    assert_matches_engine(pub, n_hw, n_sw, size, PlatformModel(), impls=[TopicImpl.SMT, TopicImpl.GW])


@pytest.mark.parametrize("pub, n_hw, n_sw, size", REGRET_CELLS)
def test_cost_pick_is_the_faster_transport_on_regret_grid(pub, n_hw, n_sw, size):
    """Regret 1: the cost policy's pick has the lower simulated worst mean latency."""
    platform = PlatformModel()
    star = star_scenario(pub, n_hw, n_sw, size, reps=4, period_us=50_000.0, seed=0, jitter_pct=0.0)
    picked, _ = map_communication(star.graph, star.node_mapping, MappingPolicy.COST, platform)
    worst_mean = {}
    for impl in (TopicImpl.SMT, TopicImpl.GW):
        result = simulate(replace(star, comm_mapping=CommMapping((("t0", impl),))), platform)
        per_sub = {}
        for d in result.deliveries:
            per_sub.setdefault(d.subscriber, []).append(d.latency_us)
        worst_mean[impl] = max(sum(v) / len(v) for v in per_sub.values())
    assert worst_mean[picked.impl_of("t0")] == min(worst_mean.values()), worst_mean


def test_pull_starting_as_the_pool_drains():
    # SW publisher, 10 kB on the default platform: each copy takes 8334 ns and
    # the OSIF round trip 30000 ns, so hw_sub_2's pull starts at 38334 ns, the
    # nanosecond hw_sub_1's pull drains, and the start runs first
    predicted = assert_matches_engine("sw", 2, 1, 10_000, PlatformModel(), impls=[TopicImpl.SMT])[TopicImpl.SMT]
    assert predicted == {"hw_sub_1": 38_334, "hw_sub_2": 46_668, "sw_sub_1": 116_668}


def test_pool_completion_before_a_tied_start_decides_the_nanosecond():
    # At this size the pool's float virtual time is coarse: running the tied
    # start before the completion that frees the pool would deliver later
    # pulls 1 ns early, so the engine's (time, seq) order must be kept.
    platform = PlatformModel(
        memif_bandwidth_bytes_per_s=7e8,
        hmt_bandwidth_bytes_per_s=7e8,
        sw_copy_bandwidth_bytes_per_s=7e8,
        osif_roundtrip_us=16.667,
        delegate_publish_us=30.0,
    )
    assert_matches_engine("sw", 4, 0, 4_381_284_110_812_730, platform, impls=[TopicImpl.SMT])


def test_illegal_impl_is_rejected():
    star = star_scenario("sw", 2, 1, 1000, reps=1, period_us=1.0, seed=0)
    endpoints = topic_endpoints(star.graph, star.node_mapping, "t0")
    with pytest.raises(ValueError, match="HMT"):
        predict_latency_ns(endpoints, "pub0", TopicImpl.HMT, 1000, PlatformModel())


# -- the cache in front of the pool loop -------------------------------------

uncached_schedule = timing._memif_schedule.__wrapped__


def assert_cached_equals_uncached(offsets, lead_ns, size_bytes, bytes_per_s, shift):
    """Cached completions of the shifted schedule equal the pool loop run on it, and on it unshifted."""
    schedule = [shift + t for t in offsets]
    expected = list(uncached_schedule(tuple(schedule), lead_ns, size_bytes, bytes_per_s))
    assert expected == [shift + t for t in uncached_schedule(tuple(offsets), lead_ns, size_bytes, bytes_per_s)]
    # the first call may miss or hit; the second, shifted once more, hits the same entry
    assert timing._memif_done_ns(schedule, lead_ns, size_bytes, bytes_per_s) == expected
    later = [t + 12_345 for t in schedule]
    assert timing._memif_done_ns(later, lead_ns, size_bytes, bytes_per_s) == [t + 12_345 for t in expected]


@settings(max_examples=300, deadline=None)
@given(
    # small offsets repeat often, so equal announcements are common
    offsets=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**9)), min_size=1, max_size=12),
    lead_ns=st.integers(0, 10**8),
    size_bytes=st.one_of(st.integers(1, 2**20), st.integers(1, 2**52)),
    bytes_per_s=st.one_of(st.floats(1e3, 1e11), st.integers(1, 10**11)),
    shift=st.integers(0, 2**40),
)
def test_cached_schedule_equals_the_pool_loop(offsets, lead_ns, size_bytes, bytes_per_s, shift):
    assert_cached_equals_uncached(offsets, lead_ns, size_bytes, bytes_per_s, shift)


def _pulls(copy_bps, size_bytes, n_pulls):
    # a SW publisher's pulls: one per copy slot, each an OSIF round trip after its copy
    copy_ns = _bytes_ns(size_bytes, copy_bps)
    return [slot * copy_ns for slot in range(n_pulls)]


@pytest.mark.parametrize("shift", [0, 1, 8_334, 2**40])
def test_cached_tie_cases(shift):
    # the pull that starts on the nanosecond the pool drains (38334 ns), see above
    memif = PlatformModel().memif_bandwidth_bytes_per_s
    pulls = _pulls(PlatformModel().sw_copy_bandwidth_bytes_per_s, 10_000, 2)
    assert_cached_equals_uncached(pulls, 30_000, 10_000, memif, shift)
    assert timing._memif_done_ns([shift + t for t in pulls], 30_000, 10_000, memif) == [
        shift + 38_334,
        shift + 46_668,
    ]
    # the completion that must run before a tied start at 4.4e15 bytes, see above
    size = 4_381_284_110_812_730
    assert_cached_equals_uncached(_pulls(7e8, size, 4), _us_to_ns(16.667), size, 7e8, shift)


def test_cached_answers_cannot_be_changed_by_a_caller():
    first = timing._memif_done_ns([0, 100, 100], 500, 10_000, 1e9)
    answer = list(first)
    first[0] = -1
    first.append(7)
    assert timing._memif_done_ns([0, 100, 100], 500, 10_000, 1e9) == answer
    assert isinstance(timing._memif_schedule((0, 100, 100), 500, 10_000, 1e9), tuple)


def test_empty_schedule():
    assert timing._memif_done_ns([], 0, 10_000, 1e9) == []


# -- the shared event loop ------------------------------------------------------


class _Clock:
    """The two event-loop fields the pool reads: the time and the event counter."""

    __slots__ = ("now_ns", "_seq")

    def __init__(self):
        self.now_ns = 0
        self._seq = 0


def reference_schedule(announced_ns, lead_ns, size_bytes, bytes_per_s):
    """The oracle for ``_memif_schedule``: the same replay on a hand-built ``(t, seq, transfer, started)`` heap."""
    clock = _Clock()
    pool = timing._MemifPool(clock, bytes_per_s)
    heap = [(t, j, j, False) for j, t in enumerate(announced_ns)]  # (t_ns, seq, transfer, started)
    heapq.heapify(heap)
    clock._seq = len(heap)
    done = [0] * len(heap)

    def finished(j):
        done[j] = clock.now_ns

    nbytes = float(size_bytes)
    while True:
        due = pool.due
        if heap and (due is None or heap[0] < due):
            t, _, j, started = heapq.heappop(heap)
            clock.now_ns = t
            if started:
                pool.start(nbytes, finished, j)
            else:
                heapq.heappush(heap, (t + lead_ns, clock._seq, j, True))
                clock._seq += 1
        elif due is not None:
            clock.now_ns = due[0]
            pool.complete()
        else:
            return tuple(done)


@settings(max_examples=300, deadline=None)
@given(
    # small offsets repeat often, so equal announcements are common
    offsets=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**9)), min_size=1, max_size=12),
    lead_ns=st.integers(0, 10**8),
    size_bytes=st.one_of(st.integers(1, 2**20), st.integers(1, 2**52)),
    bytes_per_s=st.one_of(st.floats(1e3, 1e11), st.integers(1, 10**11)),
)
# the two tie cases of test_cached_tie_cases
@example(_pulls(PlatformModel().sw_copy_bandwidth_bytes_per_s, 10_000, 2), 30_000, 10_000, PlatformModel().memif_bandwidth_bytes_per_s)
@example(_pulls(7e8, 4_381_284_110_812_730, 4), _us_to_ns(16.667), 4_381_284_110_812_730, 7e8)
def test_event_loop_replay_equals_the_reference_loop(offsets, lead_ns, size_bytes, bytes_per_s):
    schedule = tuple(offsets)
    assert uncached_schedule(schedule, lead_ns, size_bytes, bytes_per_s) == reference_schedule(
        schedule, lead_ns, size_bytes, bytes_per_s
    )


def test_event_loop_runs_same_time_events_in_scheduling_order():
    loop, ran = timing._EventLoop(1e9), []

    def mark(name):
        ran.append((loop.now_ns, name))

    for name in "cab":
        loop.at(50, mark, name)
    loop.at(10, loop.at, 50, mark, "late")
    loop.at(0, mark, "first")
    loop.drain()
    assert ran == [(0, "first"), (50, "c"), (50, "a"), (50, "b"), (50, "late")]


@pytest.mark.parametrize("start_first", [True, False])
def test_event_loop_runs_a_tied_pool_completion_by_seq(start_first):
    # 1000 bytes at 1e9 B/s drain at 1000 ns; a heap event at that nanosecond runs
    # after the completion exactly when it was scheduled after the pool's reschedule
    loop, ran = timing._EventLoop(1e9), []

    def heap_event():
        ran.append(("heap", loop.now_ns))

    if not start_first:
        loop.at(1000, heap_event)
    loop.at(0, loop.pool.start, 1000.0, lambda: ran.append(("pool", loop.now_ns)))
    if start_first:
        loop.at(0, lambda: loop.at(1000, heap_event))
    loop.drain()
    order = [("pool", 1000), ("heap", 1000)] if start_first else [("heap", 1000), ("pool", 1000)]
    assert ran == order


def test_events_for_the_running_nanosecond_run_in_scheduling_order():
    loop, ran = timing._EventLoop(1e9), []

    def first():
        ran.append(("first", loop.now_ns))
        loop.at(loop.now_ns, second)
        loop.at(loop.now_ns, third)

    def second():
        ran.append(("second", loop.now_ns))
        loop.at(loop.now_ns, fourth)  # scheduled after third, so it runs after third

    def third():
        ran.append(("third", loop.now_ns))

    def fourth():
        ran.append(("fourth", loop.now_ns))

    loop.at(100, first)
    loop.at(200, lambda: ran.append(("later", loop.now_ns)))
    loop.drain()
    assert ran == [("first", 100), ("second", 100), ("third", 100), ("fourth", 100), ("later", 200)]


@pytest.mark.parametrize("behind", ["heap", "pool"])
def test_event_for_the_running_nanosecond_keeps_seq_order_behind_one_due_then(behind):
    # 100 bytes at 1e9 B/s drain at 100 ns; ``tied`` is due at 100 ns under an earlier seq than ``now``'s
    loop, ran = timing._EventLoop(1e9), []

    def mark(name):
        ran.append((name, loop.now_ns))

    def first():
        mark("first")
        loop.at(loop.now_ns, mark, "now")
        assert len(loop._heap) == (2 if behind == "heap" else 1)

    loop.at(100, first)
    if behind == "heap":
        loop.at(100, mark, "tied")
    else:
        loop.at(0, loop.pool.start, 100.0, mark, "tied")
    loop.drain()
    assert ran == [("first", 100), ("tied", 100), ("now", 100)]


def test_flows_finishing_together_run_every_callback_before_any_follow_up():
    loop, ran = timing._EventLoop(1e9), []

    def finished(j):
        ran.append(("finished", j, loop.now_ns))
        loop.at(loop.now_ns, lambda: ran.append(("follow-up", j, loop.now_ns)))

    for j in range(2):
        loop.at(0, loop.pool.start, 1000.0, finished, j)
    loop.drain()
    assert ran == [("finished", 0, 2000), ("finished", 1, 2000), ("follow-up", 0, 2000), ("follow-up", 1, 2000)]


def test_pool_finishes_every_drained_flow_when_one_sits_behind_a_later_tag():
    # At 1000 B/s one nanosecond moves 1e-6 bytes, so flows b and c, started a
    # nanosecond apart, drain within the pool's 1e-6-byte tolerance of each
    # other. Pushed in start order the tags heap as [a, b, c, d]; popping a
    # leaves [b, d, c], so c has drained with the head b although its first child, d,
    # has not. The nanoseconds are those of the exact rule in test_memif_pool.
    offsets, size, bps = (0, 1_000, 1_001, 2_000), 1, 1000.0
    loop, fired, tags_after_a = timing._EventLoop(bps), [], []

    def finished(j):
        fired.append((j, loop.now_ns))
        if j == 0:
            tags_after_a.extend(tag for tag, *_ in loop.pool._tags)

    for j, t in enumerate(offsets):
        loop.at(t, loop.pool.start, float(size), finished, j)
    loop.drain()
    assert len(tags_after_a) == 3 and tags_after_a[2] < tags_after_a[1]
    assert fired == [(0, 3_996_666), (1, 3_999_666), (2, 3_999_666), (3, 4_000_000)]
    assert [t for _, t in fired] == list(uncached_schedule(offsets, 0, size, bps))


def test_replay_loop_is_freed_without_the_cyclic_collector(monkeypatch):
    loops = []

    class RecordedLoop(timing._EventLoop):
        def __init__(self, bytes_per_s):
            super().__init__(bytes_per_s)
            loops.append(weakref.ref(self))

    monkeypatch.setattr(timing, "_EventLoop", RecordedLoop)
    collecting = gc.isenabled()
    gc.disable()
    try:
        assert uncached_schedule((0, 10, 20), 100, 1000, 1e9) == (3075, 3095, 3100)
        assert len(loops) == 1 and loops[0]() is None
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_drain_pauses_the_collector_and_restores_its_state(enabled, raises):
    loop, seen = timing._EventLoop(1e9), []

    def handler():
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("handler failed")

    loop.at(5, handler)
    collecting = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="handler failed"):
                loop.drain()
        else:
            loop.drain()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if collecting else gc.disable)()
    assert seen == [False]


# -- the charges ---------------------------------------------------------------

CHARGED = PlatformModel(osif_roundtrip_us=27.3, delegate_publish_us=8.1)


@pytest.mark.parametrize("seed", [0, 7])
def test_charges_without_jitter_are_the_nominal_values(seed):
    charges = timing.Charges(CHARGED, 0.0, seed)
    for _ in range(3):
        assert charges.osif_ns() == _us_to_ns(CHARGED.osif_roundtrip_us)
        assert charges.delegate_ns() == _us_to_ns(CHARGED.delegate_publish_us)
        moved = charges.memif_bytes(100_003)
        assert moved == float(100_003) and type(moved) is float


@pytest.mark.parametrize("jitter, seed", [(0.05, 1), (0.3, 7)])
def test_jittered_charges_take_the_runs_uniform_draws_in_call_order(jitter, seed):
    charges = timing.Charges(CHARGED, jitter, seed)
    size = 100_003
    got = [charges.osif_ns(), charges.memif_bytes(size), charges.delegate_ns(), charges.osif_ns()]
    draws = random.Random(seed)
    f = [1.0 + draws.uniform(-jitter, jitter) for _ in got]
    assert got == [
        _us_to_ns(CHARGED.osif_roundtrip_us * f[0]),
        size * f[1],
        _us_to_ns(CHARGED.delegate_publish_us * f[2]),
        _us_to_ns(CHARGED.osif_roundtrip_us * f[3]),
    ]

"""The latency model against the engine, to the nanosecond.

``predict_latency_ns`` prices one isolated, jitter-free message without
running the engine. Each case here simulates the same message and asserts
that every subscriber's ``t_deliver_ns - t_pub_ns`` equals the prediction
exactly: there is no tolerance.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from topomap.mapping import CommMapping, TopicClass, TopicImpl, topic_endpoints
from topomap.platform_model import PlatformModel
from topomap.simulator import simulate, star_scenario
from topomap.timing import predict_latency_ns


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
